package maintain

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mindetail/internal/faultinject"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Sharded apply pipeline.
//
// With Engine.Shards > 1, a large delta's per-group work is hash-
// partitioned by group key across shard workers. The row maps and hash
// indexes stay unsharded and single-owner; parallelism comes from an
// overlay protocol with three properties that together make a sharded
// apply equivalent to the serial one:
//
//  1. Compute phase (parallel): every worker reads the shared table state
//     (the tables are quiescent during the phase, so concurrent reads are
//     safe) and accumulates its partition's group adjustments on private
//     cloned row images in a per-worker overlay. Partitioning by group key
//     means each group's contributions are applied by exactly one worker,
//     in the delta's original row order — so per-group arithmetic
//     (including float accumulation order) is bit-identical to the serial
//     path.
//  2. Deterministic merge: after a barrier, the overlays are merged and
//     sorted by each group's first-touch row ordinal — the order in which
//     the serial path would have first touched the group.
//  3. Serial install: the coordinator alone journals the prior images and
//     writes the final images back (map writes, index edits), in merge
//     order. A compute-phase error discards the overlays with nothing
//     mutated; an install-phase fault rolls back through the normal undo
//     journal. Atomicity and the replica invariant are untouched because
//     every mutation still happens on the coordinator, between the same
//     journal begin/commit brackets as a serial apply.
//
// The one observable difference from the serial path: a group that dies
// and is re-created (or is created and dies) within a single apply nets
// out in the overlay, so index bucket *order* can differ from the serial
// path's remove-then-append churn. Canonical (sorted) snapshots are
// byte-identical either way; only map/bucket iteration order — never
// content — can diverge.

// defaultShardMinRows is the row count below which a sharded engine stays
// serial. Partitioning pays one key encode per row per worker plus
// goroutine startup; below a few hundred rows the serial loop wins.
const defaultShardMinRows = 256

// maxShards caps the shard fan-out (mirrors the recompute pool cap).
const maxShards = 16

// shardable reports whether a stage over n rows should take the sharded
// path: the engine must be configured with Shards > 1 and the delta must
// reach the ShardMinRows threshold. The decision affects only scheduling,
// never results: the overlay protocol installs bit-identical state at any
// fan-out.
func (e *Engine) shardable(n int) bool {
	if e.Shards <= 1 {
		return false
	}
	min := e.ShardMinRows
	if min <= 0 {
		min = defaultShardMinRows
	}
	return n >= min
}

// shardCount resolves the worker fan-out for a sharded stage (shardable
// has already checked Shards > 1).
func (e *Engine) shardCount() int {
	return min(e.Shards, maxShards)
}

// shardPending is one group's overlay entry: the working row image (nil =
// absent), whether the group existed before the apply, and the ordinal of
// the first delta row that touched it (the deterministic install order).
type shardPending struct {
	key      string
	row      tuple.Tuple
	existed  bool
	firstOrd int
}

// shardOverlay is one worker's private result: touched groups in
// first-touch order, with a map for repeat-touch lookup.
type shardOverlay struct {
	order []*shardPending
	ents  map[string]*shardPending
	err   error
}

// touch returns the overlay entry for the encoded key, creating it on
// first touch from the (quiescent, shared) base state. get must return a
// mutation-safe private image of the current group (callers wrap the base
// map or AuxStore accordingly); concurrent get calls against quiescent
// state must be safe, which both the map read and the mutex-guarded paged
// store provide.
func (ov *shardOverlay) touch(keyBuf []byte, get func([]byte) (tuple.Tuple, bool, error), ord int) (*shardPending, error) {
	p, ok := ov.ents[string(keyBuf)]
	if !ok {
		key := string(keyBuf)
		img, exists, err := get(keyBuf)
		if err != nil {
			return nil, err
		}
		p = &shardPending{key: key, row: img, existed: exists, firstOrd: ord}
		ov.ents[key] = p
		ov.order = append(ov.order, p)
	}
	return p, nil
}

// mergeOverlays flattens per-worker overlays into one install list sorted
// by first-touch ordinal. The first error (by shard index) aborts the
// merge.
func mergeOverlays(ovs []shardOverlay) ([]*shardPending, error) {
	n := 0
	for s := range ovs {
		if ovs[s].err != nil {
			return nil, ovs[s].err
		}
		n += len(ovs[s].order)
	}
	merged := make([]*shardPending, 0, n)
	for s := range ovs {
		merged = append(merged, ovs[s].order...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].firstOrd < merged[j].firstOrd })
	return merged, nil
}

// auxApplySharded is auxApply with the per-group work fanned across shard
// workers (see the package comment above for the protocol).
func (e *Engine) auxApplySharded(at *AuxTable, rows []signedRow) error {
	plan := e.auxPlanFor(at) // warm the cache before workers share it
	shards := e.shardCount()
	e.observeShard(len(rows), shards)
	// getBase yields a mutation-safe image of the current group: the store
	// is quiescent during the compute phase, an in-place store's live rows
	// are cloned, and a paged store's decoded copies are already private.
	getBase := func(key []byte) (tuple.Tuple, bool, error) {
		row, ok, err := at.store.Get(key)
		if err != nil || !ok {
			return nil, ok, err
		}
		if at.store.InPlace() {
			row = row.Clone()
		}
		return row, true, nil
	}
	ovs := make([]shardOverlay, shards)
	var lookups int64
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ov := &ovs[s]
			ov.ents = make(map[string]*shardPending)
			plainVals := make(tuple.Tuple, len(plan.plainPos))
			sumDeltas := make(map[string]types.Value, len(plan.sumPos))
			var extremaM map[string]types.Value
			if len(plan.minPos) > 0 || len(plan.maxPos) > 0 {
				extremaM = make(map[string]types.Value)
			}
			var keyBuf, lkKey []byte
			var probes int64
			defer func() { atomic.AddInt64(&lookups, probes) }()
			for ord, sr := range rows {
				for i, p := range plan.plainPos {
					plainVals[i] = sr.row[p]
				}
				keyBuf = plainVals.AppendKey(keyBuf[:0])
				if int(fnv32(keyBuf))%shards != s {
					continue
				}
				pass := true
				for i, sj := range at.def.SemiJoins {
					child := e.aux[sj.Right]
					probes++
					var ok bool
					ok, lkKey = child.containsWith(sj.RightAttr, sr.row[plan.sjPos[i]], lkKey[:0])
					if !ok {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				if err := at.fi.Fire(faultinject.AuxAdjustStart); err != nil {
					ov.err = err
					return
				}
				clear(sumDeltas)
				for i, a := range at.def.SumAttrs {
					d, err := types.Mul(types.Int(sr.s), sr.row[plan.sumPos[i]])
					if err != nil {
						ov.err = err
						return
					}
					sumDeltas[a] = d
				}
				var extrema map[string]types.Value
				if extremaM != nil {
					clear(extremaM)
					extrema = extremaM
					for i, a := range at.def.MinAttrs {
						extrema[a] = sr.row[plan.minPos[i]]
					}
					for i, a := range at.def.MaxAttrs {
						extrema[a] = sr.row[plan.maxPos[i]]
					}
				}
				p, err := ov.touch(keyBuf, getBase, ord)
				if err != nil {
					ov.err = err
					return
				}
				out, err := at.adjustCore(p.row, plainVals, sumDeltas, extrema, sr.s)
				if err != nil {
					ov.err = err
					return
				}
				p.row = out
			}
		}(s)
	}
	wg.Wait()
	e.stats.auxLookups.Add(lookups)
	installs, err := mergeOverlays(ovs)
	if err != nil {
		return err
	}
	if err := e.fi.Fire(faultinject.ShardAuxInstall); err != nil {
		return err
	}
	for _, p := range installs {
		if !p.existed && p.row == nil {
			continue // created and died within the apply: no net change
		}
		if err := at.jnl.noteAuxKey(at, p.key); err != nil {
			return err
		}
		switch {
		case p.existed && p.row == nil:
			cur, ok, err := at.store.GetString(p.key)
			if err != nil {
				return err
			}
			if ok {
				at.indexRemove(cur, p.key)
			}
			if err := at.store.DeleteString(p.key); err != nil {
				return err
			}
		case !p.existed:
			if err := at.store.PutString(p.key, p.row); err != nil {
				return err
			}
			at.indexAdd(p.row, p.key)
		default:
			// Replacing the tuple object needs no index maintenance: the
			// indexes bucket row keys by plain attributes, which two images
			// of one group agree on by construction.
			if err := at.store.PutString(p.key, p.row); err != nil {
				return err
			}
		}
	}
	return nil
}

// adjustFromDetailSharded is adjustFromDetail with the per-group work
// fanned across shard workers. The group-by closures are stateless and the
// detail rows are read-only, so workers share the coordinator's bindings.
func (e *Engine) adjustFromDetailSharded(ctx detailCtx, weights []int64, raise bool) error {
	fns, err := e.gbFns(ctx.rel.Cols)
	if err != nil {
		return err
	}
	sums, err := e.bindSumArgs(ctx)
	if err != nil {
		return err
	}
	type storedBind struct {
		comp int
		pos  int
	}
	var stored []storedBind
	if raise {
		for ci, c := range e.mv.comps {
			if c.kind != compStored {
				continue
			}
			p, err := storedArgPos(ctx, c)
			if err != nil {
				return err
			}
			stored = append(stored, storedBind{comp: ci, pos: p})
		}
	}
	rows := ctx.rel.Rows
	shards := e.shardCount()
	e.observeShard(len(rows), shards)
	// The materialized view stays map-backed; its getter clones live rows.
	getMV := func(key []byte) (tuple.Tuple, bool, error) {
		row, ok := e.mv.rows[string(key)]
		if !ok {
			return nil, false, nil
		}
		return row.Clone(), true, nil
	}
	ovs := make([]shardOverlay, shards)
	var adjusts int64
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ov := &ovs[s]
			ov.ents = make(map[string]*shardPending)
			gbVals := make([]types.Value, len(fns))
			sumDeltas := make(map[int]types.Value, len(sums))
			var buf []byte
			var mine int64
			defer func() { atomic.AddInt64(&adjusts, mine) }()
			for ord, row := range rows {
				buf = buf[:0]
				for gi, f := range fns {
					v, err := f(row)
					if err != nil {
						ov.err = err
						return
					}
					gbVals[gi] = v
					buf = types.Encode(buf, v)
				}
				if int(fnv32(buf))%shards != s {
					continue
				}
				w := weights[ord]
				clear(sumDeltas)
				for ci, sa := range sums {
					var d types.Value
					var err error
					if sa.compressed {
						sign := int64(1)
						if w < 0 {
							sign = -1
						}
						d, err = types.Mul(types.Int(sign), row[sa.pos])
					} else {
						d, err = types.Mul(types.Int(w), row[sa.pos])
					}
					if err != nil {
						ov.err = err
						return
					}
					sumDeltas[ci] = d
				}
				if err := e.fi.Fire(faultinject.MVAdjustRow); err != nil {
					ov.err = err
					return
				}
				p, err := ov.touch(buf, getMV, ord)
				if err != nil {
					ov.err = err
					return
				}
				out, err := e.mv.adjustRowCore(p.row, gbVals, w, sumDeltas)
				if err != nil {
					ov.err = err
					return
				}
				p.row = out
				mine++
				if p.row != nil {
					for _, sb := range stored {
						e.mv.raiseRow(p.row, sb.comp, row[sb.pos])
					}
				}
			}
		}(s)
	}
	wg.Wait()
	e.stats.groupAdjusts.Add(adjusts)
	installs, err := mergeOverlays(ovs)
	if err != nil {
		return err
	}
	if err := e.fi.Fire(faultinject.ShardMVInstall); err != nil {
		return err
	}
	for _, p := range installs {
		if !p.existed && p.row == nil {
			continue
		}
		e.jnl.noteMVKey(e.mv, p.key)
		if p.existed && p.row == nil {
			e.mv.drop(p.key)
		} else {
			e.mv.put(p.key, p.row)
		}
	}
	return nil
}

// deltaDetailChunked is deltaDetail with the fold walk fanned across chunk
// workers: the signed rows split into contiguous chunks, each worker walks
// its chunk with a private walker (the auxiliary tables are quiescent and
// read-only during the phase), and the results concatenate in chunk order.
// The walk emits each seed row's joined rows contiguously and in order, so
// the concatenation is identical — rows, weights and order — to the serial
// walk.
func (e *Engine) deltaDetailChunked(t string, p *foldPlan, signed []signedRow) (detailCtx, []int64, error) {
	shards := e.shardCount()
	if shards > len(signed) {
		shards = len(signed)
	}
	chunk := (len(signed) + shards - 1) / shards
	n := (len(signed) + chunk - 1) / chunk
	outs := make([]detailRows, n)
	errs := make([]error, n)
	var probes int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		lo, hi := i*chunk, min((i+1)*chunk, len(signed))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var fw foldWalker
			errs[i] = fw.walkSigned(p, signed[lo:hi], &outs[i])
			atomic.AddInt64(&probes, fw.probes)
		}(i)
	}
	wg.Wait()
	e.stats.auxLookups.Add(probes)
	for _, err := range errs {
		if err != nil {
			return detailCtx{}, nil, fmt.Errorf("maintain: delta on %s: %w", t, err)
		}
	}
	out := outs[0]
	for _, o := range outs[1:] {
		out.rows = append(out.rows, o.rows...)
		out.weights = append(out.weights, o.weights...)
	}
	return p.detail(out.rows), out.weights, nil
}

// observeShard publishes the sharded-stage metrics (no-op without a sink).
func (e *Engine) observeShard(rows, workers int) {
	if e.met == nil {
		return
	}
	e.met.shardedStages.Inc()
	e.met.shardRows.Observe(int64(rows))
	e.met.shardWorkers.Set(int64(workers))
}
