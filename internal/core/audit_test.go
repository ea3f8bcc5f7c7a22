package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source/mem"
)

// auditData extends the Simpson's-paradox table with the attribute shapes
// the sweep filters must handle: R has a rare second value (support
// pruning), W has three balanced-ish values (top-two restriction), and ID
// is quasi-unique (cardinality exclusion).
func auditData(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("T", "Z", "Y", "R", "W", "ID")
	ids := []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9", "i10", "i11"}
	for i := 0; i < n; i++ {
		z := "l"
		if rng.Float64() < 0.5 {
			z = "s"
		}
		tv := "A"
		pB := 0.25
		if z == "s" {
			pB = 0.75
		}
		if rng.Float64() < pB {
			tv = "B"
		}
		var pY float64
		switch {
		case tv == "A" && z == "s":
			pY = 0.95
		case tv == "B" && z == "s":
			pY = 0.85
		case tv == "A" && z == "l":
			pY = 0.45
		default:
			pY = 0.35
		}
		y := "0"
		if rng.Float64() < pY {
			y = "1"
		}
		r := "a"
		if i < 10 {
			r = "b"
		}
		w := "u"
		switch {
		case rng.Float64() < 0.2:
			w = "w"
		case rng.Float64() < 0.5:
			w = "v"
		}
		if err := b.Add(tv, z, y, r, w, ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func auditOpts() Options {
	return Options{Config: Config{Method: ChiSquaredMethod, Seed: 1}}
}

// TestAuditAccountability checks the report's bookkeeping invariant —
// every enumerated candidate is evaluated, pruned or excluded with a
// reason — and the headline Simpson finding.
func TestAuditAccountability(t *testing.T) {
	tab := auditData(t, 4000, 7)
	rel := mem.New(tab)
	spec := AuditSpec{MaxTreatmentCard: 4}

	rep, err := Audit(context.Background(), rel, spec, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Evaluated + len(rep.Pruned); got != rep.Candidates {
		t.Errorf("accountability broken: evaluated %d + pruned %d != candidates %d",
			rep.Evaluated, len(rep.Pruned), rep.Candidates)
	}
	if got := len(rep.Findings) + len(rep.Unbiased); got != rep.Evaluated {
		t.Errorf("evaluated candidates unaccounted: findings %d + unbiased %d != evaluated %d",
			len(rep.Findings), len(rep.Unbiased), rep.Evaluated)
	}
	if rep.TotalFindings != len(rep.Findings) {
		t.Errorf("TotalFindings %d != len(Findings) %d without TopK", rep.TotalFindings, len(rep.Findings))
	}

	// Y is the only numeric attribute: the outcome role must be exactly {Y}.
	if len(rep.Outcomes) != 1 || rep.Outcomes[0] != "Y" {
		t.Fatalf("outcome roles = %v, want [Y]", rep.Outcomes)
	}
	// ID (12 values) must be excluded from the treatment role with a reason.
	foundID := false
	for _, e := range rep.Excluded {
		if e.Attr == "ID" && e.Role == "treatment" {
			foundID = true
			if e.Reason == "" {
				t.Error("ID excluded without a reason")
			}
		}
	}
	if !foundID {
		t.Errorf("ID not excluded from treatments (excluded: %+v)", rep.Excluded)
	}

	// The Simpson pair T→Y must surface as a reversal with Z responsible.
	var ty *AuditFinding
	for i := range rep.Findings {
		if rep.Findings[i].Treatment == "T" && rep.Findings[i].Outcome == "Y" {
			ty = &rep.Findings[i]
		}
	}
	if ty == nil {
		t.Fatalf("no T→Y finding; findings: %+v, unbiased: %+v", rep.Findings, rep.Unbiased)
	}
	if !containsStr(ty.Covariates, "Z") {
		t.Errorf("T→Y covariates = %v, want Z included", ty.Covariates)
	}
	if ty.AdjustedDiff == nil || !ty.Reversed {
		t.Errorf("T→Y should reverse under adjustment: %+v", ty)
	}
	if ty.SQL == "" || ty.Query.Treatment != "T" {
		t.Errorf("finding query not self-contained: %+v", ty)
	}
}

// TestAuditSupportPruning: candidates under the support threshold are
// pruned with a recorded reason — and never pruned above it.
func TestAuditSupportPruning(t *testing.T) {
	tab := auditData(t, 4000, 7)
	rel := mem.New(tab)

	rep, err := Audit(context.Background(), rel, AuditSpec{MaxTreatmentCard: 4}, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	// R's rare value has 10 rows < DefaultMinSupport: R→Y must be pruned.
	prunedRY := false
	for _, p := range rep.Pruned {
		if p.Treatment == "R" && p.Outcome == "Y" {
			prunedRY = true
			if p.Reason == "" {
				t.Error("R→Y pruned without a reason")
			}
			if p.Support >= DefaultMinSupport {
				t.Errorf("R→Y pruned with support %d ≥ threshold %d", p.Support, DefaultMinSupport)
			}
		}
		if p.Treatment == "T" || p.Treatment == "Z" || p.Treatment == "W" {
			t.Errorf("well-supported candidate %s→%s pruned: %q", p.Treatment, p.Outcome, p.Reason)
		}
	}
	if !prunedRY {
		t.Errorf("R→Y not pruned (pruned: %+v)", rep.Pruned)
	}

	// Raising the threshold above the dataset size prunes everything;
	// the report still accounts for every candidate.
	repAll, err := Audit(context.Background(), rel,
		AuditSpec{MaxTreatmentCard: 4, MinSupport: 1 << 20}, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(repAll.Findings) != 0 || repAll.Evaluated != 0 {
		t.Errorf("nothing should survive MinSupport=2^20: %+v", repAll.Findings)
	}
	if len(repAll.Pruned) != repAll.Candidates {
		t.Errorf("pruned %d != candidates %d", len(repAll.Pruned), repAll.Candidates)
	}

	// Lowering the threshold under R's rare-group size admits R→Y.
	repLow, err := Audit(context.Background(), rel,
		AuditSpec{MaxTreatmentCard: 4, MinSupport: 5}, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range repLow.Pruned {
		if p.Treatment == "R" && p.Outcome == "Y" {
			t.Errorf("R→Y still pruned with MinSupport=5: %q", p.Reason)
		}
	}
}

// TestAuditWideTreatment: a three-valued treatment is restricted to its two
// best-supported values, and the reported query carries that restriction.
func TestAuditWideTreatment(t *testing.T) {
	tab := auditData(t, 4000, 7)
	rel := mem.New(tab)

	rep, err := Audit(context.Background(), rel, AuditSpec{
		Treatments: []string{"W"}, Outcomes: []string{"Y"},
	}, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 1 {
		t.Fatalf("candidates = %d, want 1", rep.Candidates)
	}
	check := func(tr, out, t0, t1 string, where dataset.Predicate, sql string) {
		if tr != "W" || out != "Y" {
			t.Fatalf("candidate %s→%s, want W→Y", tr, out)
		}
		// u (~50%) and v (~30%) are the two best-supported values.
		if t0 != "u" || t1 != "v" {
			t.Errorf("compared values %q/%q, want u/v", t0, t1)
		}
		if sql != "" && !strings.Contains(sql, "IN") {
			t.Errorf("restricted query SQL lacks the IN clause:\n%s", sql)
		}
		if where == nil {
			t.Error("restricted candidate query has no WHERE predicate")
		}
	}
	switch {
	case len(rep.Findings) == 1:
		f := rep.Findings[0]
		check(f.Treatment, f.Outcome, f.T0, f.T1, f.Query.Where, f.SQL)
	case len(rep.Unbiased) == 1:
		// W is independent noise; either verdict is legitimate, but the
		// candidate must have been evaluated, not dropped.
	default:
		t.Fatalf("W→Y neither evaluated nor reported: %+v", rep)
	}
}

// TestAuditExplicitBadOutcome: naming a non-numeric outcome is an error —
// classified by the sentinel, not a silent exclusion.
func TestAuditExplicitBadOutcome(t *testing.T) {
	tab := auditData(t, 500, 7)
	rel := mem.New(tab)
	_, err := Audit(context.Background(), rel, AuditSpec{Outcomes: []string{"Z"}}, auditOpts())
	if !errors.Is(err, hyperr.ErrNonNumericOutcome) {
		t.Fatalf("err = %v, want ErrNonNumericOutcome", err)
	}
}

// TestAuditDuplicateRoleNames: duplicates in explicit role lists must not
// double-count candidates or duplicate findings.
func TestAuditDuplicateRoleNames(t *testing.T) {
	tab := auditData(t, 2000, 7)
	rel := mem.New(tab)
	rep, err := Audit(context.Background(), rel, AuditSpec{
		Treatments: []string{"T", "T"}, Outcomes: []string{"Y", "Y"},
	}, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 1 || len(rep.Treatments) != 1 || len(rep.Outcomes) != 1 {
		t.Errorf("duplicates double-counted: candidates=%d treatments=%v outcomes=%v",
			rep.Candidates, rep.Treatments, rep.Outcomes)
	}
}

// TestAuditTopK caps the ranked list but preserves the uncapped count.
func TestAuditTopK(t *testing.T) {
	tab := auditData(t, 4000, 7)
	rel := mem.New(tab)
	rep, err := Audit(context.Background(), rel,
		AuditSpec{MaxTreatmentCard: 4, TopK: 1}, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) > 1 {
		t.Errorf("TopK=1 kept %d findings", len(rep.Findings))
	}
	if rep.TotalFindings < len(rep.Findings) {
		t.Errorf("TotalFindings %d < shown %d", rep.TotalFindings, len(rep.Findings))
	}
}

// TestAuditCancellation: a cancelled context aborts the sweep with the
// context's error.
func TestAuditCancellation(t *testing.T) {
	tab := auditData(t, 4000, 7)
	rel := mem.New(tab)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Audit(ctx, rel, AuditSpec{MaxTreatmentCard: 4}, auditOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAuditProgress: the callback sees a 0-of-total prologue and a final
// done == total.
func TestAuditProgress(t *testing.T) {
	tab := auditData(t, 2000, 7)
	rel := mem.New(tab)
	var calls [][2]int
	spec := AuditSpec{MaxTreatmentCard: 4, Progress: func(done, total int) {
		calls = append(calls, [2]int{done, total})
	}}
	rep, err := Audit(context.Background(), rel, spec, auditOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("progress callback never invoked")
	}
	if first := calls[0]; first[0] != 0 || first[1] != rep.Evaluated {
		t.Errorf("first progress call = %v, want {0, %d}", first, rep.Evaluated)
	}
	last := calls[len(calls)-1]
	if last[0] != rep.Evaluated || last[1] != rep.Evaluated {
		t.Errorf("last progress call = %v, want {%d, %d}", last, rep.Evaluated, rep.Evaluated)
	}
}
