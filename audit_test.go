package hypdb_test

import (
	"context"
	"reflect"
	"testing"

	"hypdb"
	"hypdb/internal/datagen"
)

// TestAuditBerkeley is the acceptance scenario: sweeping the 1973 Berkeley
// admissions data must flag (Gender → Accepted) as biased, with Department
// among the responsible covariates and the adjustment reversing the naive
// gap — the paper's Fig 3 conclusion, reached without the analyst naming a
// single query.
func TestAuditBerkeley(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	db := hypdb.Open(tab)
	rep, err := db.Audit(context.Background(), hypdb.AuditSpec{},
		hypdb.WithSeed(1), hypdb.WithPermutations(200))
	if err != nil {
		t.Fatal(err)
	}

	var ga *hypdb.AuditFinding
	for i := range rep.Findings {
		if rep.Findings[i].Treatment == "Gender" && rep.Findings[i].Outcome == "Accepted" {
			ga = &rep.Findings[i]
		}
	}
	if ga == nil {
		t.Fatalf("Gender→Accepted not flagged; findings %+v, unbiased %+v, pruned %+v",
			rep.Findings, rep.Unbiased, rep.Pruned)
	}
	// Department must be in the adjustment sets (as covariate or — the
	// causally faithful reading of Berkeley — as mediator) and in the
	// responsible set the explanation ranks.
	deptAdj, deptResp := false, false
	for _, c := range append(append([]string(nil), ga.Covariates...), ga.Mediators...) {
		if c == "Department" {
			deptAdj = true
		}
	}
	for _, r := range ga.Responsible {
		if r.Attr == "Department" {
			deptResp = true
		}
	}
	if !deptAdj || !deptResp {
		t.Errorf("Department missing from adjustment sets (Z=%v, M=%v) or responsible set (%+v)",
			ga.Covariates, ga.Mediators, ga.Responsible)
	}
	// The naive gap favors men; adjusting for department erases (indeed
	// slightly reverses) it.
	if ga.OriginalDiff <= 0 {
		t.Errorf("naive Male−Female acceptance gap = %+.4f, want > 0", ga.OriginalDiff)
	}
	if ga.AdjustedDiff == nil {
		t.Fatalf("no adjusted estimate: %+v", ga)
	}
	if adj := *ga.AdjustedDiff; adj >= ga.OriginalDiff {
		t.Errorf("adjustment did not shrink the gap: %+.4f → %+.4f", ga.OriginalDiff, adj)
	}
	if !ga.Reversed {
		t.Errorf("Berkeley adjustment should reverse the gap: %+.4f → %+.4f",
			ga.OriginalDiff, *ga.AdjustedDiff)
	}
}

// TestAuditDeterminism: one seed, one ranked report — regardless of worker
// parallelism and run order.
func TestAuditDeterminism(t *testing.T) {
	tab, _, err := datagen.Random(datagen.RandomSpec{
		Nodes: 6, AvgDegree: 2, MinCard: 2, MaxCard: 3, Alpha: 0.3, Rows: 3000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *hypdb.AuditReport {
		db := hypdb.Open(tab) // fresh handle: no cross-run cache reuse
		rep, err := db.Audit(context.Background(), hypdb.AuditSpec{MinSupport: 20, Workers: workers},
			hypdb.WithSeed(3), hypdb.WithPermutations(100))
		if err != nil {
			t.Fatal(err)
		}
		rep.Elapsed = 0 // wall-clock is the one legitimately varying field
		return rep
	}
	serial := run(1)
	for i := 0; i < 3; i++ {
		if parallel := run(4); !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("audit reports diverge across runs/workers:\nserial:   %+v\nparallel: %+v", serial, parallel)
		}
	}
	if serial.Candidates == 0 || serial.Evaluated == 0 {
		t.Fatalf("vacuous determinism check: %+v", serial)
	}
}

// TestAuditOptionThresholds: AuditSpec.MinSupport is honored.
func TestAuditOptionThresholds(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	db := hypdb.Open(tab)
	// Every gender/department group is < 2000, so everything prunes.
	rep, err := db.Audit(context.Background(), hypdb.AuditSpec{MinSupport: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates == 0 || rep.Evaluated != 0 || len(rep.Pruned) != rep.Candidates {
		t.Errorf("spec.MinSupport ignored: evaluated %d, pruned %d of %d",
			rep.Evaluated, len(rep.Pruned), rep.Candidates)
	}
}

// TestAuditSharesSessionCD: an Audit sweep reuses the session's memoized
// covariate discoveries — one compute per treatment, hits for every
// additional candidate and for repeated sweeps.
func TestAuditSharesSessionCD(t *testing.T) {
	tab, _, err := datagen.Random(datagen.RandomSpec{
		Nodes: 5, AvgDegree: 2, MinCard: 2, MaxCard: 2, Alpha: 0.3, Rows: 2000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := hypdb.Open(tab)
	spec := hypdb.AuditSpec{MinSupport: 10}
	opts := []hypdb.Option{hypdb.WithSeed(2), hypdb.WithMethod(hypdb.ChiSquared)}

	rep, err := db.Audit(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.CDComputes == 0 {
		t.Fatal("sweep ran no covariate discoveries — vacuous")
	}
	// One discovery per treatment plus at most one mediator discovery per
	// outcome — never one per candidate pair.
	if max := len(rep.Treatments) + len(rep.Outcomes); st.CDComputes > max {
		t.Errorf("%d CD computes for %d treatments + %d outcomes: discoveries not shared within the sweep",
			st.CDComputes, len(rep.Treatments), len(rep.Outcomes))
	}
	if _, err := db.Audit(context.Background(), spec, opts...); err != nil {
		t.Fatal(err)
	}
	st2 := db.Stats()
	if st2.CDComputes != st.CDComputes {
		t.Errorf("second sweep recomputed discoveries: %d → %d computes", st.CDComputes, st2.CDComputes)
	}
	if st2.CDHits <= st.CDHits {
		t.Errorf("second sweep produced no cache hits: %+v → %+v", st, st2)
	}
}
