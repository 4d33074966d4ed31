package attack

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"doscope/internal/netx"
)

// The per-shard execution engine behind every query terminal. A
// terminal no longer hand-rolls its own view/shard loops: it compiles
// the query into an ordered list of per-shard tasks — index probes,
// by-target-permutation probes, or columnar scans — fans the tasks over
// a bounded worker pool, and merges the partial results in task order.
// Because the merge consumes partials by task index, never by
// completion order, every terminal's result is byte-identical for any
// worker count and any scheduling of the pool.
//
// Tasks inherit the store's snapshot discipline: compile loads each
// store's published view exactly once, pre-resolves the lazy indexes
// the tasks will need (so the sync.Once builds run before the fan-out,
// not under it), and workers touch only that immutable snapshot. The
// worker bodies are read paths in the readpurity sense — no locks, no
// second view loads, no Store.pub — which dosvet enforces statically.

// execKind classifies one compiled task.
type execKind uint8

const (
	execScan  execKind = iota // columnar scan over the shard's hot columns
	execProbe                 // count-index or by-target-permutation probe
)

// execOrder is a test-only hook: when set, runTasks claims task indexes
// in the returned permutation of [0, n) instead of ascending order, so
// the determinism property tests can exercise arbitrary completion
// orders. Never set outside tests.
var execOrder func(n int) []int

// runTasks runs n tasks over up to GOMAXPROCS goroutines. Tasks are
// claimed from a shared atomic counter, so an idle worker always has
// work while any task remains; the caller merges per-task partials in
// task order afterwards, which is what makes the fan-out
// order-independent. Once ctx is done no further task is claimed, and
// runTasks returns ctx.Err(): the caller must discard the partials.
func runTasks(ctx context.Context, n int, run func(ti int)) error {
	var order []int
	if execOrder != nil {
		order = execOrder(n)
	}
	done := ctx.Done()
	claim := func(k int) int {
		if k >= n {
			return -1
		}
		select {
		case <-done:
			return -1
		default:
		}
		if order != nil {
			return order[k]
		}
		return k
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for k := 0; ; k++ {
			ti := claim(k)
			if ti < 0 {
				return ctx.Err()
			}
			run(ti)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ti := claim(int(next.Add(1)) - 1)
				if ti < 0 {
					return
				}
				run(ti)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// countMode selects what a counting task accumulates; cmRows marks a
// row-drain compile (Iter, CountDistinctTargets), which never takes
// whole-view index shortcuts.
type countMode uint8

const (
	cmRows countMode = iota
	cmTotal
	cmVector
	cmDay
)

// shardTask is one unit of executor work: shard si of view vi, or the
// whole view when si is -1 (a count-index probe plus pending-tail scan).
type shardTask struct {
	vi   int
	si   int
	kind execKind
}

// executor is a query compiled against a consistent set of view
// snapshots: the task list, in merge order, plus the pre-resolved
// by-target permutations for probe tasks.
type executor struct {
	q     *Query
	views []*view
	tasks []shardTask
	perms []*targetPerms // per view, when probing
}

// probes reports whether the query's prefix filter is served from the
// by-target permutations: a binary-searchable target range needs at
// least a /8 (shorter prefixes cover most of the permutation, where the
// columnar scan wins).
func (q *Query) probes() bool { return q.plan.HasPrefix && q.plan.PrefixBits >= 8 }

// indexAnswerable reports whether indexCounts can answer the query
// exactly over a view's sealed rows.
func (q *Query) indexAnswerable(c *countsIndex, mode countMode) bool {
	if c.unindexed > 0 {
		return false
	}
	if mode == cmDay {
		// Out-of-window rows never contribute to per-day cells, so a
		// window-straddling day range cannot mis-count here.
		return true
	}
	// The index does not resolve which side of the window an
	// out-of-window event falls on.
	p := &q.plan
	if p.HasDays && p.DayLo <= p.DayHi && (p.DayLo < 0 || p.DayHi >= WindowDays) && c.outTotal > 0 {
		return false
	}
	return true
}

// compile loads every store's published view once and lowers the query
// to per-shard tasks. Counting modes take a single whole-view probe
// task where the count index answers exactly; prefix queries compile to
// per-shard permutation probes; everything else to per-shard scans,
// pruned by the day→shard range and mayMatch's (source, vector) cells. Tasks
// are emitted view-major then shard-ascending — concatenating per-task
// results in task order reproduces Iter order, because shards partition
// the time axis.
func (q *Query) compile(mode countMode) *executor {
	ex := &executor{q: q, views: q.views()}
	lo, hi := q.shardRange()
	for vi, v := range ex.views {
		if v == nil || v.length == 0 {
			continue
		}
		if mode != cmRows && !q.plan.HasPrefix {
			if q.indexAnswerable(v.counts.get(v, countsIdx), mode) {
				ex.tasks = append(ex.tasks, shardTask{vi: vi, si: -1, kind: execProbe})
				continue
			}
		}
		kind := execScan
		if q.probes() {
			kind = execProbe
			if ex.perms == nil {
				ex.perms = make([]*targetPerms, len(ex.views))
			}
			// Resolve the permutations before the fan-out so the
			// once-per-view build is not serialized under the pool.
			ex.perms[vi] = v.perms.get(v, permsIdx)
		}
		for si := lo; si <= hi && si < len(v.shards); si++ {
			if q.mayMatch(v, si) {
				ex.tasks = append(ex.tasks, shardTask{vi: vi, si: si, kind: kind})
			}
		}
	}
	return ex
}

// prefixBounds returns the inclusive target range covered by the
// query's prefix filter.
func (q *Query) prefixBounds() (lo, hi netx.Addr) {
	lo = q.plan.Prefix
	hi = lo | netx.Addr(^uint32(0)>>q.plan.PrefixBits)
	return lo, hi
}

// probeShard serves one shard's prefix-filtered rows from the by-target
// permutation: binary search to the start of the [lo, hi] target run,
// walk it applying the residual filters, then a linear pass over the
// pending tail. When ordered, matched rows are buffered and sorted into
// (start, target, row) order — the shard's Iter order, which
// concatenates to the global one because shards partition the time
// axis. fn returning false stops the walk.
func (q *Query) probeShard(sh *shard, perm []int32, ordered bool, fn func(sh *shard, i int) bool) bool {
	loT, hiT := q.prefixBounds()
	var refs []int32
	visit := func(i int) bool {
		if !q.matchKey(sh, i) {
			return true
		}
		if ordered {
			refs = append(refs, int32(i))
			return true
		}
		return fn(sh, i)
	}
	if len(perm) > 0 {
		lo := sort.Search(len(perm), func(k int) bool { return sh.target[perm[k]] >= loT })
		for k := lo; k < len(perm); k++ {
			i := int(perm[k])
			if sh.target[i] > hiT {
				break
			}
			if !visit(i) {
				return false
			}
		}
	}
	for i, n := sh.sealed, sh.rows(); i < n; i++ {
		if t := sh.target[i]; t >= loT && t <= hiT {
			if !visit(i) {
				return false
			}
		}
	}
	if !ordered {
		return true
	}
	slices.SortFunc(refs, func(a, b int32) int {
		if c := cmp.Compare(sh.start[a], sh.start[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(sh.target[a], sh.target[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, i := range refs {
		if !fn(sh, int(i)) {
			return false
		}
	}
	return true
}

// drainTask visits every matching row of a compiled per-shard task (not
// the whole-view index tasks, which countTask answers arithmetically).
// When ordered, rows arrive in the shard's Iter order. Reports whether
// the walk ran to completion.
func (ex *executor) drainTask(ti int, ordered bool, fn func(sh *shard, i int) bool) bool {
	t := ex.tasks[ti]
	v := ex.views[t.vi]
	statTask(v, t.kind)
	if t.kind == execProbe {
		return ex.q.probeShard(v.shards[t.si], ex.perms[t.vi].perm[t.si], ordered, fn)
	}
	return ex.q.scanShard(v.shards[t.si], ordered, fn)
}

// countPartial is one counting task's accumulator; execCounts merges
// them by summation, which is order-independent.
type countPartial struct {
	n   int
	vec [NumVectors]int
	day []int
}

// rowInc folds one matching row into the partial under the given mode.
func (p *countPartial) rowInc(mode countMode, sh *shard, i int) {
	switch mode {
	case cmTotal:
		p.n++
	case cmVector:
		if vec := int(sh.key[i] & 0xff); vec < NumVectors {
			p.vec[vec]++
		}
	case cmDay:
		if d := DayOf(sh.start[i]); d >= 0 && d < WindowDays {
			p.day[d]++
		}
	}
}

// countTask answers one compiled task: the whole-view tasks from the
// count index plus a pending-tail scan, the per-shard tasks by probe or
// scan.
func (ex *executor) countTask(ti int, mode countMode) countPartial {
	t := ex.tasks[ti]
	v := ex.views[t.vi]
	var p countPartial
	if mode == cmDay {
		p.day = make([]int, WindowDays)
	}
	if t.si < 0 {
		statTask(v, execProbe)
		ex.q.indexCounts(v.counts.get(v, countsIdx), &p)
		ex.q.forEachPendingRow(v, func(sh *shard, i int) { p.rowInc(mode, sh, i) })
		return p
	}
	ex.drainTask(ti, false, func(sh *shard, i int) bool {
		p.rowInc(mode, sh, i)
		return true
	})
	return p
}

// indexCounts adds the sealed rows the plan selects from the count
// index to p: the total and the per-vector totals, and the per-day
// cells when p.day is allocated. Out-of-window rows sit in no day cell,
// so they count toward the totals only when the plan has no day range;
// indexAnswerable keeps the total and per-vector modes off the index
// when a window-straddling range would need them.
func (q *Query) indexCounts(c *countsIndex, p *countPartial) {
	pl := &q.plan
	dlo, dhi, out := 0, WindowDays-1, !pl.HasDays
	if pl.HasDays {
		if pl.DayLo > pl.DayHi || pl.DayHi < 0 || pl.DayLo >= WindowDays {
			return
		}
		dlo, dhi = clampDay(int(pl.DayLo)), clampDay(int(pl.DayHi))
	}
	for src := 0; src < NumSources; src++ {
		for vec := 0; vec < NumVectors; vec++ {
			if !pl.selects(src, vec) {
				continue
			}
			sum := 0
			for d := dlo; d <= dhi; d++ {
				n := int(c.day[d][src][vec])
				sum += n
				if p.day != nil {
					p.day[d] += n
				}
			}
			if out {
				sum += int(c.out[src][vec])
			}
			p.n += sum
			p.vec[vec] += sum
		}
	}
}

// execCounts compiles and runs a counting terminal: tasks fan out over
// the worker pool, partials merge by summation. A ctx that is done
// before or during the run fails it with ctx.Err(), with nothing
// compiled or no further task started.
func (q *Query) execCounts(ctx context.Context, mode countMode) (countPartial, error) {
	if err := ctx.Err(); err != nil {
		return countPartial{}, err
	}
	ex := q.compile(mode)
	parts := make([]countPartial, len(ex.tasks))
	err := runTasks(ctx, len(ex.tasks), func(ti int) {
		parts[ti] = ex.countTask(ti, mode)
	})
	if err != nil {
		return countPartial{}, err
	}
	var out countPartial
	if mode == cmDay {
		out.day = make([]int, WindowDays)
	}
	for i := range parts {
		out.n += parts[i].n
		for v, n := range parts[i].vec {
			out.vec[v] += n
		}
		if parts[i].day != nil {
			for d, n := range parts[i].day {
				out.day[d] += n
			}
		}
	}
	return out, nil
}

// --- distinct targets -------------------------------------------------

// CountDistinctTargets returns the number of distinct target addresses
// among matching events, pending tails included. It is one more row
// drain over the executor Iter uses: each task collects a private
// target set, and the sets merge by union, which is order-independent,
// so the answer is the same for any worker count.
func (q *Query) CountDistinctTargets() int {
	ex := q.compile(cmRows)
	parts := make([]map[netx.Addr]struct{}, len(ex.tasks))
	runTasks(context.Background(), len(ex.tasks), func(ti int) {
		set := make(map[netx.Addr]struct{})
		ex.drainTask(ti, false, func(sh *shard, i int) bool {
			set[sh.target[i]] = struct{}{}
			return true
		})
		parts[ti] = set
	})
	out := make(map[netx.Addr]struct{})
	for _, p := range parts {
		for t := range p {
			out[t] = struct{}{}
		}
	}
	return len(out)
}

// --- execution counters ----------------------------------------------

// statTask attributes one executed task to the owning store's
// execution counters. Views without an owner (federated Collect
// results, hand-built snapshots) are not counted. Like the rebuild
// counter, these are atomics a read path may bump without mutating any
// store state readers depend on.
func statTask(v *view, kind execKind) {
	o := v.owner
	if o == nil {
		return
	}
	switch kind {
	case execScan:
		o.execScanTasks.Add(1)
	case execProbe:
		o.execProbeTasks.Add(1)
	}
}

// ExecStats is a snapshot of a store's query-execution counters: how
// many per-shard tasks ran by kind. Degraded index coverage (e.g.
// unindexable enum values forcing scans) shows up here long before it
// shows up in latency.
//
// BitmapTasks, BitmapHits and BitmapMisses are always zero: the target
// bitmap index they counted is gone, and CountDistinctTargets runs the
// same probe or scan tasks as Iter. They remain only because the
// end-to-end benchmark module still names them.
type ExecStats struct {
	ScanTasks    uint64 `json:"scan_tasks"`
	ProbeTasks   uint64 `json:"probe_tasks"`
	BitmapTasks  uint64 `json:"bitmap_tasks"`
	BitmapHits   uint64 `json:"bitmap_hits"`
	BitmapMisses uint64 `json:"bitmap_misses"`
}

// ExecStats returns the store's execution counters.
func (s *Store) ExecStats() ExecStats {
	return ExecStats{
		ScanTasks:  s.execScanTasks.Load(),
		ProbeTasks: s.execProbeTasks.Load(),
	}
}
