package core

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// WriteText renders the report as the kind of panel the paper's figures
// show: query answers, bias verdict, explanations, and refined answers.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("SQL Query:\n%s\n\n", indent(r.OriginalSQL, "  "))

	if r.Degraded {
		p("STALE: at least one remote shard was unreachable during this analysis; all statistics rest on partial counts.\n\n")
	}

	p("Query Answers:\n")
	for _, row := range r.Answer.Rows {
		p("  %s%s: %s  (n=%d)\n", row.Treatment, ctxSuffix(row.Context), fmtFloats(row.Avgs), row.Count)
	}
	for _, c := range r.OriginalComparisons {
		p("  diff%s = %s, p-values %s\n", ctxSuffix(c.Context), fmtFloats(c.Diffs), fmtPValues(c.PValues, c.PValueCIs))
	}

	if len(r.DroppedAttrs) > 0 {
		p("\nDropped attributes (logical dependencies):\n")
		for _, d := range r.DroppedAttrs {
			if d.Peer != "" {
				p("  %s — %s (%s)\n", d.Attr, d.Reason, d.Peer)
			} else {
				p("  %s — %s\n", d.Attr, d.Reason)
			}
		}
	}

	p("\nCovariates (Z): %s\n", strings.Join(r.Covariates, ", "))
	if r.CD != nil && r.CD.UsedFallback {
		p("  (CD fallback: Z = MB(T) − outcomes)\n")
	}
	if len(r.Mediators) > 0 {
		p("Mediators (M): %s\n", strings.Join(r.Mediators, ", "))
	}

	verdict := func(results []BiasResult, label string) {
		if len(results) == 0 {
			return
		}
		p("\nBias detection (%s):\n", label)
		for _, b := range results {
			tag := "UNBIASED"
			if b.Biased {
				tag = "BIASED"
			}
			p("  %s%s: I(T;V)=%.4f p=%s → %s\n", "context", ctxSuffix(b.Context), b.MI,
				fmtP(b.PValue, b.PValueCI), tag)
		}
	}
	verdict(r.BiasTotal, "w.r.t. covariates, total effect")
	verdict(r.BiasDirect, "w.r.t. covariates ∪ mediators, direct effect")

	if len(r.Coarse) > 0 {
		p("\nCoarse-grained explanations (responsibility):\n")
		for _, c := range r.Coarse {
			p("  %-24s %.2f\n", c.Attr, c.Rho)
		}
	}
	if len(r.Fine) > 0 {
		p("\nFine-grained explanations (top contributions):\n")
		for _, attr := range r.fineOrder() {
			p("  %s:\n", attr)
			for rank, f := range r.Fine[attr] {
				p("    %d. T=%s Y=%s %s=%s  (κ_TZ=%.4f κ_YZ=%.4f)\n",
					rank+1, f.TreatmentValue, f.OutcomeValue, attr, f.CovariateValue, f.KappaTZ, f.KappaYZ)
			}
		}
	}

	if r.RewrittenTotal != nil {
		p("\nRefined answers (total effect), overlap kept %d/%d blocks (%.1f%% rows):\n",
			r.RewrittenTotal.BlocksKept, r.RewrittenTotal.BlocksTotal, 100*r.RewrittenTotal.RowsKeptFraction)
		for _, row := range r.RewrittenTotal.Rows {
			p("  %s%s: %s\n", row.Treatment, ctxSuffix(row.Context), fmtFloats(row.Avgs))
		}
		for _, c := range r.TotalComparisons {
			p("  diff%s = %s, p-values %s\n", ctxSuffix(c.Context), fmtFloats(c.Diffs), fmtPValues(c.PValues, c.PValueCIs))
		}
	}
	if r.RewrittenDirect != nil {
		p("\nRefined answers (direct effect, baseline %s):\n", r.RewrittenDirect.Baseline)
		for _, row := range r.RewrittenDirect.Rows {
			p("  %s%s: %s\n", row.Treatment, ctxSuffix(row.Context), fmtFloats(row.Avgs))
		}
		for _, c := range r.DirectComparisons {
			p("  diff%s = %s, p-values %s\n", ctxSuffix(c.Context), fmtFloats(c.Diffs), fmtPValues(c.PValues, c.PValueCIs))
		}
	}
	if r.RewrittenSQL != "" {
		p("\nRewritten SQL:\n%s\n", indent(r.RewrittenSQL, "  "))
	}
	p("\nTimings: detect %v, explain %v, resolve %v\n", r.Timing.Detect, r.Timing.Explain, r.Timing.Resolve)
	return nil
}

// fineOrder lists the Fine attributes in Coarse rank order, then by name
// for any Coarse lacks, so the panel renders the same text on every call.
func (r *Report) fineOrder() []string {
	rank := func(attr string) int {
		if i := slices.IndexFunc(r.Coarse, func(c Responsibility) bool { return c.Attr == attr }); i >= 0 {
			return i
		}
		return len(r.Coarse)
	}
	return slices.SortedFunc(maps.Keys(r.Fine), func(a, b string) int {
		return cmp.Or(rank(a)-rank(b), strings.Compare(a, b))
	})
}

// String renders the report to a string.
func (r *Report) String() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

func ctxSuffix(ctx []string) string {
	if len(ctx) == 0 {
		return ""
	}
	return "[" + strings.Join(ctx, ",") + "]"
}

func fmtFloats(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return strings.Join(parts, ", ")
}

func fmtP(p, ci float64) string {
	if p < 0.001 && ci == 0 {
		return "<0.001"
	}
	if ci > 0 {
		return fmt.Sprintf("%.3f±%.3f", p, ci)
	}
	return fmt.Sprintf("%.3f", p)
}

func fmtPValues(ps, cis []float64) string {
	parts := make([]string, len(ps))
	for i := range ps {
		ci := 0.0
		if i < len(cis) {
			ci = cis[i]
		}
		parts[i] = fmtP(ps[i], ci)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
