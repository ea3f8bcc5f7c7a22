package hypdb_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypdb"
	"hypdb/internal/datagen"
)

func berkeleyDB(t *testing.T) *hypdb.DB {
	t.Helper()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	return hypdb.Open(tab)
}

// TestAnalyzeMemoizesCovariateDiscovery is the cache contract: a second
// identical Analyze on one handle performs zero new covariate discoveries —
// every CD call is answered from the memo, observed via the Stats counters.
func TestAnalyzeMemoizesCovariateDiscovery(t *testing.T) {
	db := berkeleyDB(t)
	ctx := context.Background()
	q := datagen.BerkeleyQuery()
	opts := []hypdb.Option{hypdb.WithSeed(3), hypdb.WithMethod(hypdb.ChiSquared)}

	rep1, err := db.Analyze(ctx, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cold := db.Stats()
	if cold.CDComputes == 0 {
		t.Fatal("first Analyze reported zero covariate discoveries")
	}

	rep2, err := db.Analyze(ctx, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	warm := db.Stats()
	if warm.CDComputes != cold.CDComputes {
		t.Errorf("second identical Analyze ran %d new covariate discoveries, want 0",
			warm.CDComputes-cold.CDComputes)
	}
	if warm.CDHits <= cold.CDHits {
		t.Errorf("second Analyze recorded no cache hits (hits %d → %d)", cold.CDHits, warm.CDHits)
	}
	if !reflect.DeepEqual(rep1.Covariates, rep2.Covariates) {
		t.Errorf("cached covariates diverge: %v vs %v", rep1.Covariates, rep2.Covariates)
	}

	// A different configuration must not be answered from the cache.
	if _, err := db.Analyze(ctx, q, hypdb.WithSeed(99), hypdb.WithMethod(hypdb.ChiSquared)); err != nil {
		t.Fatal(err)
	}
	if after := db.Stats(); after.CDComputes == warm.CDComputes {
		t.Error("changed config was served from the cache")
	}

	db.ResetCache()
	if s := db.Stats(); s.CDComputes != 0 || s.CDHits != 0 {
		t.Errorf("ResetCache left counters %+v", s)
	}
}

// TestDiscoverCovariatesMemoized covers the public discovery entry point's
// own memoization, including the cached result being a defensive copy.
func TestDiscoverCovariatesMemoized(t *testing.T) {
	db := berkeleyDB(t)
	ctx := context.Background()
	args := func() (string, []string, []string) {
		return "Gender", []string{"Department", "Accepted"}, []string{"Accepted"}
	}

	tr, cands, outs := args()
	cd1, err := db.DiscoverCovariates(ctx, tr, cands, outs, hypdb.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Stats(); got.CDComputes != 1 || got.CDHits != 0 {
		t.Fatalf("after first discovery: %+v", got)
	}
	// Mutating the returned result must not poison the cache.
	cd1.Parents = append(cd1.Parents, "Poison")

	cd2, err := db.DiscoverCovariates(ctx, tr, cands, outs, hypdb.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Stats(); got.CDComputes != 1 || got.CDHits != 1 {
		t.Fatalf("after second discovery: %+v", got)
	}
	for _, p := range cd2.Parents {
		if p == "Poison" {
			t.Fatal("cache returned the caller-mutated slice")
		}
	}
}

// TestAnalyzeCancellation: a context cancelled while the Monte-Carlo
// permutation loop is running aborts the analysis with the context's error,
// well before the uncancelled run would finish.
func TestAnalyzeCancellation(t *testing.T) {
	tab, err := datagen.Flight(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := hypdb.Open(tab)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		// Full MIT with an enormous replicate count: minutes of permutation
		// work if cancellation were ignored.
		_, err := db.Analyze(ctx, datagen.FlightQuery(),
			hypdb.WithMethod(hypdb.MIT), hypdb.WithPermutations(5_000_000), hypdb.WithSeed(1))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Analyze returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Analyze did not return within 30s of cancellation")
	}
}

// TestAnalyzePreCancelled: an already-dead context never starts work.
func TestAnalyzePreCancelled(t *testing.T) {
	db := berkeleyDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Analyze(ctx, datagen.BerkeleyQuery()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if s := db.Stats(); s.CDComputes != 0 {
		t.Errorf("pre-cancelled Analyze still ran %d discoveries", s.CDComputes)
	}
}

// TestAnalyzeAllSharesCache runs one query many times over a ≥4-worker
// pool: the single-flight cache must collapse the covariate discoveries to
// one computation per distinct target. Run under -race this also guards the
// handle's concurrency claims.
func TestAnalyzeAllSharesCache(t *testing.T) {
	db := berkeleyDB(t)
	q := datagen.BerkeleyQuery()
	queries := make([]hypdb.Query, 8)
	for i := range queries {
		queries[i] = q
	}

	reports, err := db.AnalyzeAll(context.Background(), queries,
		hypdb.WithWorkers(4), hypdb.WithSeed(3), hypdb.WithMethod(hypdb.ChiSquared))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("report %d missing", i)
		}
		if !reflect.DeepEqual(rep.Covariates, reports[0].Covariates) {
			t.Errorf("report %d covariates %v != %v", i, rep.Covariates, reports[0].Covariates)
		}
	}
	s := db.Stats()
	// One treatment CD plus one mediator CD per outcome; everything else
	// must be a hit.
	if s.CDComputes > 2 {
		t.Errorf("batch ran %d covariate discoveries, want ≤ 2", s.CDComputes)
	}
	if s.CDHits < len(queries) {
		t.Errorf("batch recorded only %d cache hits across %d identical queries", s.CDHits, len(queries))
	}
}

// TestAnalyzeAllPropagatesError: one bad query fails the batch with a
// classified error; the context machinery must not deadlock the pool.
func TestAnalyzeAllPropagatesError(t *testing.T) {
	db := berkeleyDB(t)
	good := datagen.BerkeleyQuery()
	bad := good
	bad.Treatment = "NoSuchColumn"
	_, err := db.AnalyzeAll(context.Background(), []hypdb.Query{good, bad, good, good},
		hypdb.WithWorkers(4), hypdb.WithMethod(hypdb.ChiSquared), hypdb.WithSeed(1))
	if !errors.Is(err, hypdb.ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
}

// TestSentinelErrors pins the errors.Is contract of the public API.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()

	t.Run("unknown attribute", func(t *testing.T) {
		db := berkeleyDB(t)
		q := datagen.BerkeleyQuery()
		q.Treatment = "Missing"
		if _, err := db.Analyze(ctx, q); !errors.Is(err, hypdb.ErrUnknownAttribute) {
			t.Errorf("Analyze: got %v", err)
		}
		if _, err := db.DiscoverCovariates(ctx, "Missing", []string{"Department"}, nil); !errors.Is(err, hypdb.ErrUnknownAttribute) {
			t.Errorf("DiscoverCovariates: got %v", err)
		}
	})

	t.Run("no overlap", func(t *testing.T) {
		// Z duplicates T exactly, so no Z-block contains both treatments.
		b := hypdb.NewBuilder("T", "Z", "Y")
		for i := 0; i < 40; i++ {
			v := "a"
			if i%2 == 0 {
				v = "b"
			}
			if err := b.Add(v, v, "1"); err != nil {
				t.Fatal(err)
			}
		}
		tab, err := b.Table()
		if err != nil {
			t.Fatal(err)
		}
		q := hypdb.Query{Treatment: "T", Outcomes: []string{"Y"}}
		_, err = hypdb.Open(tab).RewriteTotal(ctx, q, []string{"Z"})
		if !errors.Is(err, hypdb.ErrNoOverlap) {
			t.Errorf("got %v, want ErrNoOverlap", err)
		}
	})

	t.Run("empty selection", func(t *testing.T) {
		db := berkeleyDB(t)
		q := datagen.BerkeleyQuery()
		q.Where = hypdb.Eq{Attr: "Department", Value: "Nowhere"}
		if _, err := db.Run(ctx, q); !errors.Is(err, hypdb.ErrEmptySelection) {
			t.Errorf("got %v, want ErrEmptySelection", err)
		}
	})

	t.Run("non-binary treatment", func(t *testing.T) {
		b := hypdb.NewBuilder("T", "Z", "Y")
		for i, v := range []string{"a", "b", "c", "a", "b", "c", "a", "b"} {
			z := "0"
			if i%2 == 0 {
				z = "1"
			}
			if err := b.Add(v, z, "1"); err != nil {
				t.Fatal(err)
			}
		}
		tab, err := b.Table()
		if err != nil {
			t.Fatal(err)
		}
		q := hypdb.Query{Treatment: "T", Outcomes: []string{"Y"}}
		_, err = hypdb.Open(tab).EffectBounds(ctx, q, []string{"Z"})
		if !errors.Is(err, hypdb.ErrNonBinaryTreatment) {
			t.Errorf("got %v, want ErrNonBinaryTreatment", err)
		}
	})
}

// TestWhereClauseKeysCache: queries differing only in WHERE must not share
// CD results (their views differ), while re-running either query hits.
func TestWhereClauseKeysCache(t *testing.T) {
	db := berkeleyDB(t)
	ctx := context.Background()
	opts := []hypdb.Option{hypdb.WithSeed(3), hypdb.WithMethod(hypdb.ChiSquared)}

	full := datagen.BerkeleyQuery()
	narrowed := full
	narrowed.Where = hypdb.In{Attr: "Department", Values: []string{"A", "B", "C"}}

	if _, err := db.Analyze(ctx, full, opts...); err != nil {
		t.Fatal(err)
	}
	afterFull := db.Stats()
	if _, err := db.Analyze(ctx, narrowed, opts...); err != nil {
		t.Fatal(err)
	}
	afterNarrow := db.Stats()
	if afterNarrow.CDComputes == afterFull.CDComputes {
		t.Error("narrowed WHERE was served from the full-table cache entry")
	}
	if _, err := db.Analyze(ctx, narrowed, opts...); err != nil {
		t.Fatal(err)
	}
	if again := db.Stats(); again.CDComputes != afterNarrow.CDComputes {
		t.Error("repeated narrowed query missed the cache")
	}
}

// customPred is a user-defined Predicate outside the built-in combinators:
// such predicates have no canonical cache encoding, so Analyze must bypass
// the covariate-discovery memo rather than risk a wrong shared entry.
type customPred struct{}

func (customPred) Eval(t *hypdb.Table) ([]bool, error) {
	out := make([]bool, t.NumRows())
	for i := range out {
		out[i] = true
	}
	return out, nil
}

func (customPred) SQL() string { return "TRUE" }

// deptPred is a second user-defined Predicate that renders the same SQL as
// customPred but keeps only the rows of the named departments.
type deptPred []string

func (p deptPred) Eval(t *hypdb.Table) ([]bool, error) {
	col, err := t.Column("Department")
	if err != nil {
		return nil, err
	}
	out := make([]bool, t.NumRows())
	for i := range out {
		for _, d := range p {
			out[i] = out[i] || col.Value(i) == d
		}
	}
	return out, nil
}

func (deptPred) SQL() string { return "TRUE" }

// reportText renders a report without its wall-clock Timings line.
func reportText(rep *hypdb.Report) string {
	text := rep.String()
	if i := strings.Index(text, "\nTimings:"); i >= 0 {
		text = text[:i]
	}
	return text
}

func TestCustomPredicateBypassesCache(t *testing.T) {
	db := berkeleyDB(t)
	ctx := context.Background()
	q := datagen.BerkeleyQuery()
	q.Where = customPred{}

	rep, err := db.Analyze(ctx, q, hypdb.WithSeed(3), hypdb.WithMethod(hypdb.ChiSquared))
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Mediators) == 0 {
		t.Fatalf("custom-predicate analysis produced no mediators: %+v", rep)
	}
	if s := db.Stats(); s.CDComputes != 0 || s.CDHits != 0 {
		t.Errorf("custom predicate touched the cache: %+v", s)
	}

	// A second custom predicate with the same display SQL but other rows
	// must not read the first one's restricted view on the same handle.
	q.Where = deptPred{"A", "F"}
	opts := []hypdb.Option{hypdb.WithSeed(3), hypdb.WithMethod(hypdb.ChiSquared)}
	shared, err := db.Analyze(ctx, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := berkeleyDB(t).Analyze(ctx, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportText(shared), reportText(fresh); got != want {
		t.Errorf("second custom predicate on one handle:\n%s\nwant (fresh handle):\n%s", got, want)
	}
}
