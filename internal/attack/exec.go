package attack

import (
	"cmp"
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
// by-target-permutation probes, bitmap unions, or columnar scans —
// fans the tasks over a bounded worker pool, and merges the partial
// results in task order. Because the merge consumes partials by task
// index, never by completion order, every terminal's result is
// byte-identical for any worker count and any scheduling of the pool.
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
	execScan   execKind = iota // columnar scan over the shard's hot columns
	execProbe                  // count-index or by-target-permutation probe
	execBitmap                 // target-bitmap union / popcount
)

// execOrder is a test-only hook: when set, runTasks claims task indexes
// in the returned permutation of [0, n) instead of ascending order, so
// the determinism property tests can exercise arbitrary completion
// orders. Never set outside tests.
var execOrder func(n int) []int

// runTasks runs n tasks over up to `workers` goroutines (0 means
// GOMAXPROCS). Tasks are claimed from a shared atomic counter, so an
// idle worker always has work while any task remains; the caller merges
// per-task partials in task order afterwards, which is what makes the
// fan-out order-independent.
func runTasks(workers, n int, run func(ti int)) {
	if n == 0 {
		return
	}
	var order []int
	if execOrder != nil {
		order = execOrder(n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	claim := func(k int) int {
		if k >= n {
			return -1
		}
		if order != nil {
			return order[k]
		}
		return k
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			run(claim(k))
		}
		return
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
}

// Workers bounds the executor's parallelism for this query's terminals;
// 0 (the default) means GOMAXPROCS. Results are identical for any
// value — the knob exists for benchmarks, tests, and callers that want
// to cap a terminal's CPU share.
func (q *Query) Workers(n int) *Query { q.workers = n; return q }

// countMode selects what a counting task accumulates; cmRows marks a
// row-iteration compile (Iter, GroupByTarget), which never takes
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
func (q *Query) probes() bool { return q.hasPrefix && q.prefixBits >= 8 }

// indexAnswerable reports whether countViaIndex can answer the query
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
	if q.hasDays && q.dayLo <= q.dayHi && (q.dayLo < 0 || q.dayHi >= WindowDays) && c.outTotal > 0 {
		return false
	}
	return true
}

// compile loads every store's published view once and lowers the query
// to per-shard tasks. Counting modes take a single whole-view probe
// task where the count index answers exactly; prefix queries compile to
// per-shard permutation probes; everything else to per-shard scans,
// pruned by the day→shard range and the (source, vector) counts. Tasks
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
		if mode != cmRows && !q.hasPrefix && q.pred == nil {
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
	lo = q.prefix
	hi = lo | netx.Addr(^uint32(0)>>q.prefixBits)
	return lo, hi
}

// probeShard serves one shard's prefix-filtered rows from the by-target
// permutation: binary search to the start of the [lo, hi] target run,
// walk it applying the residual filters, then a linear pass over the
// pending tail. When ordered, matched rows are buffered and sorted into
// (start, target, row) order — the shard's Iter order, which
// concatenates to the global one because shards partition the time
// axis. fn returning false stops the walk.
func (q *Query) probeShard(sh *shard, perm []int32, ordered bool, scratch *Event, fn func(sh *shard, i int) bool) bool {
	loT, hiT := q.prefixBounds()
	var refs []int32
	visit := func(i int) bool {
		if !q.matchKey(sh, i) {
			return true
		}
		if q.pred != nil {
			sh.view(i, scratch)
			if !q.pred(scratch) {
				return true
			}
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
		if q.pred != nil {
			sh.view(int(i), scratch)
		}
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
func (ex *executor) drainTask(ti int, ordered bool, scratch *Event, fn func(sh *shard, i int) bool) bool {
	t := ex.tasks[ti]
	v := ex.views[t.vi]
	statTask(v, t.kind)
	if t.kind == execProbe {
		return ex.q.probeShard(v.shards[t.si], ex.perms[t.vi].perm[t.si], ordered, scratch, fn)
	}
	return ex.q.scanShard(v.shards[t.si], scratch, ordered, fn)
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
	q := ex.q
	var p countPartial
	if mode == cmDay {
		p.day = make([]int, WindowDays)
	}
	if t.si < 0 {
		statTask(v, execProbe)
		c := v.counts.get(v, countsIdx)
		switch mode {
		case cmTotal:
			p.n, _ = q.countViaIndex(c, nil)
		case cmVector:
			_, _ = q.countViaIndex(c, &p.vec)
		case cmDay:
			q.indexCountByDay(c, p.day)
		}
		q.forEachPendingRow(v, func(sh *shard, i int) { p.rowInc(mode, sh, i) })
		return p
	}
	var scratch Event
	ex.drainTask(ti, false, &scratch, func(sh *shard, i int) bool {
		p.rowInc(mode, sh, i)
		return true
	})
	return p
}

// indexCountByDay adds the query's sealed per-day counts from the count
// index into out (length WindowDays).
func (q *Query) indexCountByDay(c *countsIndex, out []int) {
	dlo, dhi := 0, WindowDays-1
	if q.hasDays {
		if q.dayLo > q.dayHi || q.dayHi < 0 || q.dayLo >= WindowDays {
			return
		}
		dlo, dhi = clampDay(q.dayLo), clampDay(q.dayHi)
	}
	for d := dlo; d <= dhi; d++ {
		for src := 0; src < 2; src++ {
			if q.source >= 0 && int(q.source) != src {
				continue
			}
			for vec := 0; vec < NumVectors; vec++ {
				if q.vecMask != 0 && q.vecMask&(1<<vec) == 0 {
					continue
				}
				out[d] += int(c.day[d][src][vec])
			}
		}
	}
}

// execCounts compiles and runs a counting terminal: tasks fan out over
// the worker pool, partials merge by summation.
func (q *Query) execCounts(mode countMode) countPartial {
	ex := q.compile(mode)
	parts := make([]countPartial, len(ex.tasks))
	runTasks(q.workers, len(ex.tasks), func(ti int) {
		parts[ti] = ex.countTask(ti, mode)
	})
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
	return out
}

// --- distinct-target terminals ---------------------------------------

// collectBitmaps gathers the target-bitmap cells answering a
// distinct-target terminal under the query's filters: the indexed day
// (and, absent a day filter, out-of-window) bitmaps of every shard in
// range, plus tiny query-time bitmaps over the pending tails. ok is
// false when the filters force a scan — source/vector/prefix/predicate
// filters select rows the target cells cannot resolve, and a day range
// reaching outside the window cannot be split out of the single
// out-of-window cell.
func (q *Query) collectBitmaps(views []*view) (bms []*targetBitmap, ok bool) {
	if q.source >= 0 || q.vecMask != 0 || q.hasPrefix || q.pred != nil {
		return nil, false
	}
	dlo, dhi := 0, WindowDays-1
	includeOut := true
	if q.hasDays {
		if q.dayLo < 0 || q.dayHi >= WindowDays {
			return nil, false
		}
		dlo, dhi, includeOut = q.dayLo, q.dayHi, false
	}
	lo, hi := q.shardRange()
	for _, v := range views {
		if v == nil || v.length == 0 {
			continue
		}
		statBitmap(v, true)
		tix := v.targets.get(v, targetsIdx)
		for si := lo; si <= hi && si < len(v.shards); si++ {
			sh := v.shards[si]
			if sh.rows() == 0 {
				continue
			}
			statTask(v, execBitmap)
			bms = appendShardBitmaps(bms, tix.shards[si], si, dlo, dhi, includeOut)
			bms = appendShardBitmaps(bms, tailTargets(sh, si), si, dlo, dhi, includeOut)
		}
	}
	return bms, true
}

// CountDistinctTargets returns the number of distinct target addresses
// among matching events. Filter-free (and day-filtered) queries are
// answered from the per-shard target bitmaps by container union and
// popcount; other filters fall back to a parallel per-shard scan with
// hash-set merge. Both paths count every matching row, pending tails
// included.
func (q *Query) CountDistinctTargets() int {
	if q.hasDays && q.dayLo > q.dayHi {
		return 0
	}
	views := q.views()
	if bms, ok := q.collectBitmaps(views); ok {
		return unionCard(bms)
	}
	return len(q.distinctScan(views))
}

// CountDistinctBlocks returns the number of distinct maskBits-bit
// target prefixes (e.g. 24 for /24 blocks) among matching events — the
// paper's "fraction of the address space attacked" figures. Served from
// the target bitmaps when eligible, by prefix-group counting inside the
// containers.
func (q *Query) CountDistinctBlocks(maskBits int) int {
	if q.hasDays && q.dayLo > q.dayHi {
		return 0
	}
	views := q.views()
	if bms, ok := q.collectBitmaps(views); ok {
		return unionBlocks(bms, maskBits)
	}
	seen := q.distinctScan(views)
	blocks := make(map[netx.Addr]struct{}, len(seen))
	for t := range seen {
		blocks[t.Mask(maskBits)] = struct{}{}
	}
	return len(blocks)
}

// distinctScan is the fallback distinct-target path: parallel per-shard
// scans under the full filter set, each task building a private target
// set, merged into one. Merge order is irrelevant (set union), so the
// result is worker-count independent.
func (q *Query) distinctScan(views []*view) map[netx.Addr]struct{} {
	lo, hi := q.shardRange()
	type scanTask struct{ vi, si int }
	var tasks []scanTask
	for vi, v := range views {
		if v == nil || v.length == 0 {
			continue
		}
		statBitmap(v, false)
		for si := lo; si <= hi && si < len(v.shards); si++ {
			if q.mayMatch(v, si) {
				tasks = append(tasks, scanTask{vi, si})
			}
		}
	}
	parts := make([]map[netx.Addr]struct{}, len(tasks))
	runTasks(q.workers, len(tasks), func(ti int) {
		t := tasks[ti]
		v := views[t.vi]
		statTask(v, execScan)
		set := make(map[netx.Addr]struct{})
		var scratch Event
		q.scanShard(v.shards[t.si], &scratch, false, func(sh *shard, i int) bool {
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
	return out
}

// CountDistinctTargetsByDay returns, per in-window start day, the
// number of distinct targets attacked that day (length WindowDays) —
// the series behind the paper's Figure-1 targets panel. The bitmap path
// runs one union task per shard (each shard owns its 8 days, so no day
// spans tasks); the fallback scans with per-day sets under the same
// sharding.
func (q *Query) CountDistinctTargetsByDay() []int {
	out := make([]int, WindowDays)
	if q.hasDays && (q.dayLo > q.dayHi || q.dayHi < 0 || q.dayLo >= WindowDays) {
		return out
	}
	views := q.views()
	dlo, dhi := 0, WindowDays-1
	if q.hasDays {
		dlo, dhi = clampDay(q.dayLo), clampDay(q.dayHi)
	}
	lo, hi := q.shardRange()
	if q.source < 0 && q.vecMask == 0 && !q.hasPrefix && q.pred == nil {
		// Bitmap path: collect each shard's cells across views (indexed
		// plus pending-tail), then one parallel union task per shard.
		stByShard := make([][]*shardTargets, numShards)
		for _, v := range views {
			if v == nil || v.length == 0 {
				continue
			}
			statBitmap(v, true)
			tix := v.targets.get(v, targetsIdx)
			for si := lo; si <= hi && si < len(v.shards); si++ {
				if v.shards[si].rows() == 0 {
					continue
				}
				statTask(v, execBitmap)
				if st := tix.shards[si]; st != nil {
					stByShard[si] = append(stByShard[si], st)
				}
				if st := tailTargets(v.shards[si], si); st != nil {
					stByShard[si] = append(stByShard[si], st)
				}
			}
		}
		var tasks []int
		for si := lo; si <= hi && si < numShards; si++ {
			if len(stByShard[si]) > 0 {
				tasks = append(tasks, si)
			}
		}
		runTasks(q.workers, len(tasks), func(ti int) {
			si := tasks[ti]
			base := si * shardDays
			var bms []*targetBitmap
			for rel := 0; rel < shardDays; rel++ {
				d := base + rel
				if d < dlo || d > dhi || d >= WindowDays {
					continue
				}
				bms = bms[:0]
				for _, st := range stByShard[si] {
					if tb := st.day[rel]; tb != nil {
						bms = append(bms, tb)
					}
				}
				out[d] = unionCard(bms)
			}
		})
		return out
	}
	// Fallback: per-shard scan tasks with per-day sets. A day's rows
	// live in exactly one shard, so each task owns its output days.
	var tasks []int
	for si := lo; si <= hi && si < numShards; si++ {
		for _, v := range views {
			if v != nil && v.length > 0 && si < len(v.shards) && q.mayMatch(v, si) {
				tasks = append(tasks, si)
				break
			}
		}
	}
	for _, v := range views {
		if v != nil && v.length > 0 {
			statBitmap(v, false)
		}
	}
	runTasks(q.workers, len(tasks), func(ti int) {
		si := tasks[ti]
		var sets [shardDays]map[netx.Addr]struct{}
		var scratch Event
		for _, v := range views {
			if v == nil || v.length == 0 || si >= len(v.shards) || !q.mayMatch(v, si) {
				continue
			}
			statTask(v, execScan)
			q.scanShard(v.shards[si], &scratch, false, func(sh *shard, i int) bool {
				d := DayOf(sh.start[i])
				if d < dlo || d > dhi {
					return true
				}
				rel := d - si*shardDays
				if rel < 0 || rel >= shardDays {
					return true
				}
				if sets[rel] == nil {
					sets[rel] = make(map[netx.Addr]struct{})
				}
				sets[rel][sh.target[i]] = struct{}{}
				return true
			})
		}
		for rel, set := range sets {
			if set != nil {
				out[si*shardDays+rel] = len(set)
			}
		}
	})
	return out
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
	case execBitmap:
		o.execBitmapTasks.Add(1)
	}
}

// statBitmap records whether a distinct-target terminal answered a
// view's rows from the bitmap index (hit) or fell back to scanning.
func statBitmap(v *view, hit bool) {
	o := v.owner
	if o == nil {
		return
	}
	if hit {
		o.bitmapHits.Add(1)
	} else {
		o.bitmapMisses.Add(1)
	}
}

// ExecStats is a snapshot of a store's query-execution counters: how
// many per-shard tasks ran by kind, and how often distinct-target
// terminals were served by the bitmap index versus falling back to a
// scan. Degraded index coverage (e.g. unindexable enum values forcing
// scans) shows up here long before it shows up in latency.
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
		ScanTasks:    s.execScanTasks.Load(),
		ProbeTasks:   s.execProbeTasks.Load(),
		BitmapTasks:  s.execBitmapTasks.Load(),
		BitmapHits:   s.bitmapHits.Load(),
		BitmapMisses: s.bitmapMisses.Load(),
	}
}
