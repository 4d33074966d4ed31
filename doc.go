// Package doscope is a from-scratch Go reproduction of "Millions of
// Targets Under Attack: a Macroscopic Characterization of the DoS
// Ecosystem" (Jonker, King, Krupp, Rossow, Sperotto, Dainotti — IMC 2017).
//
// The repository builds every system the paper relies on — a network
// telescope with the Moore et al. backscatter classifier, the AmpPot
// amplification honeypot fleet, an OpenINTEL-style active DNS measurement
// platform (with its own RFC 1035 codec and authoritative UDP server), IP
// geolocation and prefix-to-AS metadata, DPS-use detection — plus a
// calibrated scenario generator that substitutes for the restricted
// measurement data, and the fusion framework that reproduces every table
// and figure of the paper's evaluation.
//
// # The attack event store
//
// Both sensor pipelines feed attack.Store, which shards events by
// day-of-window and answers analyses through a composable query API
// instead of a materialized slice:
//
//	n := store.Query().
//		Source(attack.SourceHoneypot).
//		Vectors(attack.VectorNTP).
//		Days(0, 364).
//		Count() // answered from the per-day count index, no scan
//
// Terminal operations are Iter (a Go range-over-func sequence),
// IterByStart (both data sets merged in start-time order), Count,
// CountByVector, CountByDay, CountDistinctTargets (a row drain over the
// same per-shard tasks as Iter, merged as a target-set union), Events
// and Collect. A Query is its stores plus one attack.Plan, the portable
// filter federation ships to remote sites. Every table/figure method in
// internal/core is built on these primitives; Store.Events remains only
// as a deprecated compatibility shim (returning a fresh defensive copy
// per call).
//
// # Live ingest: pending tails, sealing, and index deltas
//
// Mutation cost is proportional to the delta, not the store. Add parks
// the event in its shard's small unsorted pending tail (O(1), nothing
// invalidated); counting terminals answer sealed rows from the per-day
// count and by-target indexes and fold in the pending tails by bounded
// linear scan. Sealing — automatic at a small tail threshold, per
// touched shard after an AddBatch, or explicit via Seal, always on the
// writer's side — stable-sorts just the tail, sorted-merges it into the
// shard's order index, and applies index deltas for the newly sealed
// rows only. Physical rows never move, so (shard, row) handles stay
// valid for the life of the store, and a from-scratch index rebuild
// happens at most once per store lifetime. The amppot live pipeline
// streams completed events into a queried store's ingest queue as
// their flows close (Fleet.StreamTo), with cmd/amppot -flush as the
// store's drain tick; Fleet.DrainTo/AddBatch remain the amortized
// batch path for bulk loads.
//
// # Concurrency: MPSC ingest, published immutable views
//
// A Store is safe for any number of concurrent producers and any
// number of concurrent readers. Producers (Add/AddBatch) enqueue into
// a bounded MPSC ingest queue; a single drainer applies every queued
// batch in enqueue order, seals each touched shard at most once, and
// atomically publishes ONE immutable view (shard snapshots plus count
// index) covering all of them — so publication cost is paid per drain,
// not per mutation, and concurrent producers coalesce instead of
// serializing on full writer passes. The zero-value store drains
// synchronously (AddBatch returns published: read-your-writes);
// StartIngest switches to a background drainer publishing once per
// tick, with Flush as the visibility barrier and Close as the
// exactly-once final drain — the cmd/amppot live pipeline runs this
// way, with -flush as the tick. Every query terminal loads the
// published view once when it starts and runs lock-free against it —
// no read path ever takes a lock, seals a tail, or mutates shard
// state. Readers observe whole-batch prefixes of the enqueue order: an
// AddBatch becomes visible all at once, never partially, and a drain
// that coalesced several batches publishes them as one step. Terminals
// that need sorted order merge pending tails on the fly through a
// read-only cursor instead of sealing, and the lazy index builds are
// once-per-lifetime: the first reader that needs an index builds it
// against its own snapshot and the writer adopts it on the next
// mutation. This is what lets cmd/amppot stream, query, and serve its
// capture with no store mutex, and federation.Server run concurrent
// handlers over a live store.
//
// # Columnar layout and the scratch-Event contract
//
// Each shard stores its events column-wise: the hot filter columns
// (Start, Target, and a packed Source|Vector key, ~14 bytes per event)
// are all a filtered scan or count reads, cold payload columns are
// touched only for matching rows, and port lists live in a shared
// per-shard arena addressed by (offset, length). Iter and IterByStart
// yield a per-iteration scratch *Event materialized from the
// columns: it is valid until the next yield, and its Ports slice aliases
// store-owned memory. Under live ingest that aliasing is still safe —
// appends never move arena entries — but the scratch event itself is
// only valid until the next yield, so callers that retain events across
// iterations must copy them (Event.Clone; Events returns stable
// copies).
//
// # On-disk formats
//
// Stores persist as CSV or as the column-oriented DOSEVT02 segment
// (Store.WriteSegment/OpenSegment/OpenSegmentFile): the shard columns
// written verbatim as aligned per-shard blocks plus a footer of offsets,
// which a reader mmaps and serves a Store from directly — opening a
// multi-GB capture in O(1) time and memory. docs/FORMATS.md specifies
// every layout byte-for-byte.
//
// # Federation
//
// internal/federation extends the query plane across processes, the
// paper's join of independent vantage points: a Server exposes a site's
// store (including a live amppot capture, via cmd/amppot -serve) over
// the DOSFED01 frame protocol — handlers run concurrently as lock-free
// reads of the store's published view — and RemoteStore satisfies the
// narrow attack.Queryable contract, so attack.QueryBackends plans mix
// local stores and remote sites:
//
//	n, statuses, err := attack.QueryBackends(localStore, federation.Dial("site:9041")).
//		Vectors(attack.VectorNTP).
//		Count()
//
// Every federated terminal answers from the backends that respond and
// reports each backend's outcome in statuses; err is non-nil only when
// none answered. attack.StatusErr(statuses) is the strict reading: nil
// only when the answer covers every backend. Each attack.Queryable
// method takes the caller's context (FedQuery.Context supplies it): a
// remote site aborts its dial, exchange and retry sleeps, and a local
// store stops between shard tasks and fails with the context error.
//
// Query filters compile to a portable attack.Plan (20 bytes on the
// wire); counting terminals come back as fixed-size index partials —
// O(index cells), never O(events) — merged deterministically in backend
// order, and iteration terminals fetch matching events as DOSEVT02
// segments opened zero-copy. cmd/doscope -federate aggregates sites
// from the command line; examples/federation is a runnable two-site
// walkthrough.
//
// Start with the README and the canonical references under docs/
// (ARCHITECTURE.md, FORMATS.md), run `go run ./examples/quickstart`, or
// regenerate the full evaluation with `go test -bench=. .` or
// `go run ./cmd/doscope`.
package doscope
