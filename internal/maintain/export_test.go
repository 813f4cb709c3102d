package maintain

import (
	"fmt"

	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// ScopedMatchesFull is the scoped-vs-full recomputation oracle, exported
// for this package's external tests (the paged-store cases). It recomputes
// every materialized group of e through the streamed scoped path — each
// group alone, then every group in one call — and requires each result to
// equal, per tuple.Identical, the aggregation of the full auxiliary join
// (fullAuxDetail, the reference). A single-group recompute must also probe
// the auxiliary indexes less than the full join does whenever the view has
// more than one group.
//
// The two paths join from different roots, so they accumulate a group's
// float SUM in different orders; callers use detail whose sums are exact
// at any order, which leaves the oracle testing which rows each path
// reaches and how it aggregates them.
func ScopedMatchesFull(e *Engine) error {
	all := mvGroupSet(e)
	if len(all) == 0 {
		return fmt.Errorf("no materialized groups")
	}
	before := e.stats.auxLookups.Load()
	full, err := e.fullAuxDetail()
	if err != nil {
		return err
	}
	fullProbes := e.stats.auxLookups.Load() - before
	want, err := e.computeGroups(full, all)
	if err != nil {
		return err
	}
	check := func(sub groupSet) (int64, error) {
		before := e.stats.auxLookups.Load()
		got, ok, err := e.scopedGroups(sub)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("scoped path declined")
		}
		probes := e.stats.auxLookups.Load() - before
		if len(got) != len(sub) {
			return 0, fmt.Errorf("scoped recompute of %d groups produced %d", len(sub), len(got))
		}
		for k, vals := range sub {
			if !tuple.Identical(got[k], want[k]) {
				return 0, fmt.Errorf("group %v: scoped %v != full %v", vals, got[k], want[k])
			}
		}
		return probes, nil
	}
	for k, vals := range all {
		probes, err := check(groupSet{k: vals})
		if err != nil {
			return err
		}
		if len(all) > 1 && probes >= fullProbes {
			return fmt.Errorf("group %v: scoped recompute made %d probes, the full join %d — no reduction",
				vals, probes, fullProbes)
		}
	}
	_, err = check(all)
	return err
}

// mvGroupSet rebuilds a groupSet for every currently materialized group —
// the shape recomputeGroups receives.
func mvGroupSet(e *Engine) groupSet {
	keys := make(groupSet, len(e.mv.rows))
	for k, row := range e.mv.rows {
		vals := make([]types.Value, len(e.mv.gbIdx))
		for i, gi := range e.mv.gbIdx {
			vals[i] = row[gi]
		}
		keys[k] = vals
	}
	return keys
}
