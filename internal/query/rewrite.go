package query

import (
	"context"
	"fmt"
	"sort"

	"hypdb/internal/hyperr"
	"hypdb/source"
)

// EffectKind distinguishes the two rewritings HypDB performs (Sec 3.3).
type EffectKind int

const (
	// TotalEffect is the ATE rewriting: the adjustment formula (Eq 2) over
	// the covariates Z with exact matching.
	TotalEffect EffectKind = iota
	// DirectEffect is the NDE rewriting: the mediator formula (Eq 3) over
	// covariates Z and mediators M.
	DirectEffect
)

// String implements fmt.Stringer.
func (k EffectKind) String() string {
	if k == DirectEffect {
		return "direct"
	}
	return "total"
}

// Rewritten is the answer of a rewritten (bias-removing) query.
type Rewritten struct {
	Rows       []Row      `json:"rows"`
	Kind       EffectKind `json:"-"`
	Covariates []string   `json:"covariates,omitempty"`
	Mediators  []string   `json:"mediators,omitempty"` // DirectEffect only
	// Baseline is the treatment value whose mediator distribution is held
	// fixed in the DirectEffect rewriting.
	Baseline string `json:"baseline,omitempty"`
	// BlocksTotal and BlocksKept report the exact-matching (overlap)
	// pruning: how many homogeneous blocks existed and how many had every
	// treatment value present.
	BlocksTotal int `json:"blocks_total"`
	BlocksKept  int `json:"blocks_kept"`
	// RowsKeptFraction is the fraction of data rows inside kept blocks.
	RowsKeptFraction float64 `json:"rows_kept_fraction"`
}

// Compare pairs rewritten rows across the two treatment values, as
// Answer.Compare does for the original query.
func (r *Rewritten) Compare() ([]Comparison, error) {
	return (&Answer{Rows: r.Rows}).Compare()
}

// blockStat accumulates the per-(treatment, block) row count and outcome
// sums.
type blockStat struct {
	count int
	sums  []float64
}

// cellAgg is one homogeneous block (x, z, m): its context codes, the
// rendered x- and z-key parts, and per-treatment statistics.
type cellAgg struct {
	ctxCodes []int32
	xKey     string
	zKey     string
	byT      map[string]blockStat
	total    int
}

// RewriteTotal executes the Listing 2 rewriting: it partitions the WHERE
// view into blocks homogeneous on (Z, X), discards blocks missing any
// treatment value (exact matching, enforcing Overlap), and returns the
// weighted averages of block averages with weights Pr(z | x) re-normalized
// over the kept blocks.
func RewriteTotal(ctx context.Context, rel source.Relation, q Query, covariates []string) (*Rewritten, error) {
	return rewrite(ctx, rel, q, covariates, nil, "", TotalEffect)
}

// RewriteDirect executes the mediator-formula rewriting (Eq 3): block
// averages over (T, Z, M, X) are combined with mediator weights
// Pr(m | baseline, z, x) and covariate weights Pr(z | x). The answer for
// treatment value t estimates E[Y(t, M(baseline))]; the difference between
// the two treatment rows estimates the natural direct effect. An empty
// baseline selects the lexicographically smallest treatment value.
func RewriteDirect(ctx context.Context, rel source.Relation, q Query, covariates, mediators []string, baseline string) (*Rewritten, error) {
	if len(mediators) == 0 {
		return nil, fmt.Errorf("query: direct-effect rewriting needs at least one mediator")
	}
	return rewrite(ctx, rel, q, covariates, mediators, baseline, DirectEffect)
}

func rewrite(ctx context.Context, rel source.Relation, q Query, covariates, mediators []string, baseline string, kind EffectKind) (*Rewritten, error) {
	view, err := q.View(ctx, rel)
	if err != nil {
		return nil, err
	}
	if err := checkAdjustmentAttrs(rel, q, covariates, "covariate"); err != nil {
		return nil, err
	}
	if err := checkAdjustmentAttrs(rel, q, mediators, "mediator"); err != nil {
		return nil, err
	}
	for _, m := range mediators {
		for _, z := range covariates {
			if m == z {
				return nil, fmt.Errorf("query: attribute %q is both covariate and mediator", m)
			}
		}
	}
	if kind == TotalEffect && len(covariates) == 0 {
		return nil, fmt.Errorf("query: total-effect rewriting needs at least one covariate")
	}

	tDict, err := view.Labels(ctx, q.Treatment)
	if err != nil {
		return nil, err
	}
	numT := len(tDict)
	if numT < 2 {
		return nil, fmt.Errorf("query: treatment %q has a single value in the selected data", q.Treatment)
	}
	tLabels := append([]string(nil), tDict...)
	sort.Strings(tLabels)
	if kind == DirectEffect {
		if baseline == "" {
			baseline = tLabels[0]
		}
		if indexOf(tLabels, baseline) < 0 {
			return nil, fmt.Errorf("query: baseline %q is not a treatment value (have %v)", baseline, tLabels)
		}
	}

	yvals := make([][]float64, len(q.Outcomes))
	for i, y := range q.Outcomes {
		yvals[i], err = FloatDict(ctx, view, y)
		if err != nil {
			return nil, fmt.Errorf("query: outcome %q: %w", y, err)
		}
	}

	// One pushed-down group-by over (T, X, Z, M, Y...): each group over the
	// leading (T, X, Z, M) fields is one treatment value of one block, and
	// its outcome cells fold into the block's per-treatment sums.
	attrs := append([]string{q.Treatment}, q.Groupings...)
	attrs = append(attrs, covariates...)
	attrs = append(attrs, mediators...)
	nK := len(attrs) // block fields (everything but the outcomes)
	dc, err := source.Tabulate(ctx, view, append(attrs, q.Outcomes...))
	if err != nil {
		return nil, err
	}
	nX := len(q.Groupings)
	nZ := len(covariates)

	cells := make(map[string]*cellAgg)
	var cellOrder []string
	for _, g := range dc.GroupBy(nK) {
		key := string(g.Key.Slice(1, nK)) // everything except the treatment
		agg, ok := cells[key]
		if !ok {
			agg = &cellAgg{
				ctxCodes: g.Key.Slice(1, 1+nX).Codes(),
				xKey:     key[:4*nX],
				zKey:     key[4*nX : 4*(nX+nZ)],
				byT:      make(map[string]blockStat),
			}
			cells[key] = agg
			cellOrder = append(cellOrder, key)
		}
		agg.byT[tDict[g.Key.Field(0)]] = blockStat{count: g.Total, sums: outcomeSums(g, yvals)}
		agg.total += g.Total
	}
	sort.Strings(cellOrder)

	// Exact matching: keep only blocks where every treatment value occurs
	// (count(DISTINCT T) = |Dom(T)| in Listing 2).
	kept := make([]*cellAgg, 0, len(cells))
	keptRows := 0
	for _, key := range cellOrder {
		agg := cells[key]
		if len(agg.byT) == numT {
			kept = append(kept, agg)
			keptRows += agg.total
		}
	}
	result := &Rewritten{
		Kind:        kind,
		Covariates:  append([]string(nil), covariates...),
		Mediators:   append([]string(nil), mediators...),
		Baseline:    baseline,
		BlocksTotal: len(cells),
		BlocksKept:  len(kept),
	}
	if dc.Total > 0 {
		result.RowsKeptFraction = float64(keptRows) / float64(dc.Total)
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("query: overlap fails everywhere — no block contains all %d treatment values: %w", numT, hyperr.ErrNoOverlap)
	}

	xDicts, err := labelDecoders(ctx, view, q.Groupings)
	if err != nil {
		return nil, err
	}
	decodeCtx := func(codes []int32) ([]string, error) {
		out := make([]string, nX)
		for j := range q.Groupings {
			out[j] = xDicts[j][codes[j]]
		}
		return out, nil
	}

	var rows []Row
	if kind == TotalEffect {
		rows, err = totalEffectRows(q, kept, tLabels, decodeCtx)
	} else {
		rows, err = directEffectRows(q, kept, tLabels, baseline, decodeCtx)
	}
	if err != nil {
		return nil, err
	}
	sortRows(rows)
	result.Rows = rows
	return result, nil
}

// totalEffectRows implements the adjustment formula Eq 2: per context x and
// treatment value t, Σ_z avg(Y | t, z, x) · Pr(z | x), with Pr(z | x)
// re-normalized over the kept blocks of that context.
func totalEffectRows(q Query, kept []*cellAgg, tLabels []string, decodeCtx func([]int32) ([]string, error)) ([]Row, error) {
	type ctxAgg struct {
		codes  []int32
		weight float64              // Σ kept block sizes (normalizer)
		acc    map[string][]float64 // treatment -> per-outcome weighted sums
		counts map[string]int       // treatment -> supporting rows
	}
	byX := make(map[string]*ctxAgg)
	var order []string
	for _, cell := range kept {
		cx, ok := byX[cell.xKey]
		if !ok {
			cx = &ctxAgg{
				codes:  cell.ctxCodes,
				acc:    make(map[string][]float64),
				counts: make(map[string]int),
			}
			byX[cell.xKey] = cx
			order = append(order, cell.xKey)
		}
		w := float64(cell.total)
		cx.weight += w
		for _, tl := range tLabels {
			st := cell.byT[tl]
			acc := cx.acc[tl]
			if acc == nil {
				acc = make([]float64, len(q.Outcomes))
				cx.acc[tl] = acc
			}
			for oi := range q.Outcomes {
				acc[oi] += st.sums[oi] / float64(st.count) * w
			}
			cx.counts[tl] += st.count
		}
	}
	sort.Strings(order)
	var rows []Row
	for _, k := range order {
		cx := byX[k]
		ctx, err := decodeCtx(cx.codes)
		if err != nil {
			return nil, err
		}
		for _, tl := range tLabels {
			avgs := make([]float64, len(q.Outcomes))
			for oi := range q.Outcomes {
				avgs[oi] = cx.acc[tl][oi] / cx.weight
			}
			rows = append(rows, Row{Treatment: tl, Context: ctx, Avgs: avgs, Count: cx.counts[tl]})
		}
	}
	return rows, nil
}

// directEffectRows implements the mediator formula Eq 3: per context x and
// treatment t, Σ_z Pr(z|x) Σ_m Pr(m | baseline, z, x) · avg(Y | t, z, m, x),
// with both weight distributions re-normalized over kept blocks.
func directEffectRows(q Query, kept []*cellAgg, tLabels []string, baseline string, decodeCtx func([]int32) ([]string, error)) ([]Row, error) {
	// Group kept cells by (x) and by (x,z).
	type zAgg struct {
		cells     []*cellAgg
		baseCount int // baseline rows across mediator cells (normalizer for Pr(m|t0,z,x))
		total     int // all rows (contributes to Pr(z|x))
	}
	type ctxAgg struct {
		codes []int32
		byZ   map[string]*zAgg
		zKeys []string
		total int
	}
	byX := make(map[string]*ctxAgg)
	var order []string
	for _, cell := range kept {
		cx, ok := byX[cell.xKey]
		if !ok {
			cx = &ctxAgg{codes: cell.ctxCodes, byZ: make(map[string]*zAgg)}
			byX[cell.xKey] = cx
			order = append(order, cell.xKey)
		}
		za, ok := cx.byZ[cell.zKey]
		if !ok {
			za = &zAgg{}
			cx.byZ[cell.zKey] = za
			cx.zKeys = append(cx.zKeys, cell.zKey)
		}
		za.cells = append(za.cells, cell)
		za.baseCount += cell.byT[baseline].count
		za.total += cell.total
		cx.total += cell.total
	}
	sort.Strings(order)

	var rows []Row
	for _, k := range order {
		cx := byX[k]
		ctx, err := decodeCtx(cx.codes)
		if err != nil {
			return nil, err
		}
		sort.Strings(cx.zKeys)
		acc := make(map[string][]float64, len(tLabels))
		counts := make(map[string]int, len(tLabels))
		for _, tl := range tLabels {
			acc[tl] = make([]float64, len(q.Outcomes))
		}
		for _, zk := range cx.zKeys {
			za := cx.byZ[zk]
			pz := float64(za.total) / float64(cx.total)
			for _, cell := range za.cells {
				pm := float64(cell.byT[baseline].count) / float64(za.baseCount)
				for _, tl := range tLabels {
					st := cell.byT[tl]
					for oi := range q.Outcomes {
						acc[tl][oi] += pz * pm * st.sums[oi] / float64(st.count)
					}
					counts[tl] += st.count
				}
			}
		}
		for _, tl := range tLabels {
			rows = append(rows, Row{Treatment: tl, Context: ctx, Avgs: acc[tl], Count: counts[tl]})
		}
	}
	return rows, nil
}

// checkAdjustmentAttrs validates covariate/mediator lists against the
// relation and the query's own attributes.
func checkAdjustmentAttrs(rel source.Relation, q Query, attrs []string, role string) error {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if !rel.HasAttribute(a) {
			return fmt.Errorf("query: no %s column %q: %w", role, a, hyperr.ErrUnknownAttribute)
		}
		if seen[a] {
			return fmt.Errorf("query: duplicate %s %q", role, a)
		}
		seen[a] = true
		if a == q.Treatment {
			return fmt.Errorf("query: treatment %q cannot be a %s", a, role)
		}
		for _, y := range q.Outcomes {
			if a == y {
				return fmt.Errorf("query: outcome %q cannot be a %s", a, role)
			}
		}
		for _, x := range q.Groupings {
			if a == x {
				return fmt.Errorf("query: grouping %q cannot be a %s", a, role)
			}
		}
	}
	return nil
}

func indexOf(items []string, x string) int {
	for i, v := range items {
		if v == x {
			return i
		}
	}
	return -1
}
