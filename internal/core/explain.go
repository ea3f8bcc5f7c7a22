package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hypdb/internal/stats"
	"hypdb/source"
)

// Responsibility is a coarse-grained explanation entry (Def 3.3): one
// variable of V and its normalized share of the bias.
type Responsibility struct {
	Attr string `json:"attr"`
	// Rho is the degree of responsibility ρ_Z ∈ [0,1]; the V-members sum
	// to 1 when any bias exists.
	Rho float64 `json:"rho"`
	// MI is the unnormalized numerator Î(T;Z|Γ).
	MI float64 `json:"mi"`
}

// explainCoarse ranks the variables V by their degree of responsibility for
// the bias in the given context view. Per footnote 1 of the paper, the
// numerator I(T;V|Γ) − I(T;V|Z,Γ) collapses to I(T;Z|Γ) for Z ∈ V, which
// is how it is computed here — one pairwise count query per variable.
// Estimates clamped at zero keep ρ within [0,1] under the Miller-Madow
// correction.
func explainCoarse(ctx context.Context, view source.Relation, treatment string, variables []string) ([]Responsibility, error) {
	if len(variables) == 0 {
		return nil, nil
	}
	if err := source.CheckAttrs(view, treatment); err != nil {
		return nil, err
	}
	n, err := view.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	const est = stats.MillerMadow
	out := make([]Responsibility, 0, len(variables))
	total := 0.0
	for _, v := range variables {
		dc, err := source.Tabulate(ctx, view, []string{treatment, v})
		if err != nil {
			return nil, err
		}
		// I(T;V) = H(T) + H(V) − H(TV), with the marginals folded in code
		// order to match the code-vector estimator exactly.
		mi := stats.EntropyCounts(dc.Marginal(0), n, est) + stats.EntropyCounts(dc.Marginal(1), n, est) -
			stats.EntropyCountsStable(dc.CellCounts(), n, est)
		if mi < 0 {
			mi = 0
		}
		total += mi
		out = append(out, Responsibility{Attr: v, MI: mi})
	}
	if total > 0 {
		for i := range out {
			out[i].Rho = out[i].MI / total
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rho > out[j].Rho })
	return out, nil
}

// FineExplanation is one fine-grained explanation (Def 3.4): a ground
// triple (t, y, z) with its contributions to Î(T;Z) and Î(Y;Z).
type FineExplanation struct {
	TreatmentValue string `json:"treatment_value"`
	OutcomeValue   string `json:"outcome_value"`
	CovariateValue string `json:"covariate_value"`
	// KappaTZ is κ(t,z), the contribution of (t,z) to I(T;Z).
	KappaTZ float64 `json:"kappa_tz"`
	// KappaYZ is κ(y,z), the contribution of (y,z) to I(Y;Z).
	KappaYZ float64 `json:"kappa_yz"`
}

// explainFine implements the FGE procedure (Alg 3): it ranks the triples of
// Π_{T,Y,Z}(view) by their contribution to Î(T;Z) and to Î(Y;Z), aggregates
// the two rankings with Borda's method, and returns the top-k triples. All
// statistics derive from one count query over (T, Y, Z).
func explainFine(ctx context.Context, view source.Relation, treatment, outcome, covariate string, k int) ([]FineExplanation, error) {
	if k <= 0 {
		k = 2
	}
	if err := source.CheckAttrs(view, treatment, outcome, covariate); err != nil {
		return nil, err
	}
	n, err := view.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("core: empty context")
	}
	dc, err := source.Tabulate(ctx, view, []string{treatment, outcome, covariate})
	if err != nil {
		return nil, err
	}

	// Joint and marginal frequencies, folded from the distinct triples.
	type pair struct{ a, b int32 }
	type triple struct{ t, y, z int32 }
	tzCounts := make(map[pair]int)
	yzCounts := make(map[pair]int)
	tCounts, yCounts, zCounts := dc.Marginal(0), dc.Marginal(1), dc.Marginal(2)
	var keys []triple
	for _, g := range dc.GroupBy(3) {
		tv, yv, zv := g.Key.Field(0), g.Key.Field(1), g.Key.Field(2)
		tzCounts[pair{tv, zv}] += g.Total
		yzCounts[pair{yv, zv}] += g.Total
		keys = append(keys, triple{tv, yv, zv})
	}
	kappa := func(joint, ma, mb int) float64 {
		if joint == 0 {
			return 0
		}
		pxy := float64(joint) / float64(n)
		px := float64(ma) / float64(n)
		py := float64(mb) / float64(n)
		return pxy * math.Log(pxy/(px*py))
	}

	// Order the distinct triples by code.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.y != b.y {
			return a.y < b.y
		}
		return a.z < b.z
	})

	kTZ := make([]float64, len(keys))
	kYZ := make([]float64, len(keys))
	for i, tr := range keys {
		kTZ[i] = kappa(tzCounts[pair{tr.t, tr.z}], tCounts[tr.t], zCounts[tr.z])
		kYZ[i] = kappa(yzCounts[pair{tr.y, tr.z}], yCounts[tr.y], zCounts[tr.z])
	}
	consensus := stats.BordaAggregate(stats.RankDescending(kTZ), stats.RankDescending(kYZ))
	if consensus == nil {
		return nil, fmt.Errorf("core: rank aggregation failed over %d triples", len(keys))
	}
	if k > len(consensus) {
		k = len(consensus)
	}
	tDict, err := view.Labels(ctx, treatment)
	if err != nil {
		return nil, err
	}
	yDict, err := view.Labels(ctx, outcome)
	if err != nil {
		return nil, err
	}
	zDict, err := view.Labels(ctx, covariate)
	if err != nil {
		return nil, err
	}
	out := make([]FineExplanation, 0, k)
	for _, idx := range consensus[:k] {
		tr := keys[idx]
		out = append(out, FineExplanation{
			TreatmentValue: tDict[tr.t],
			OutcomeValue:   yDict[tr.y],
			CovariateValue: zDict[tr.z],
			KappaTZ:        kTZ[idx],
			KappaYZ:        kYZ[idx],
		})
	}
	return out, nil
}
