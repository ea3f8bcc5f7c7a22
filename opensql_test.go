package hypdb_test

import (
	"context"
	"testing"

	"hypdb"
	"hypdb/internal/datagen"
	"hypdb/internal/memsql"
	"hypdb/source"
	"hypdb/source/mem"
)

// TestOpenSQLRunAndClose exercises the SQL-backed facade end to end: open,
// inspect the schema, execute a query, and release the handle (twice).
func TestOpenSQLRunAndClose(t *testing.T) {
	ctx := context.Background()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	memsql.Register("facade_berkeley", tab)
	defer memsql.Unregister("facade_berkeley")
	conn, err := memsql.Open("")
	if err != nil {
		t.Fatal(err)
	}
	db, err := hypdb.OpenSQL(ctx, conn, "facade_berkeley")
	if err != nil {
		t.Fatal(err)
	}

	if tp, ok := db.Relation().(interface{ Table() *hypdb.Table }); ok && tp.Table() != nil {
		t.Error("SQL-backed handles should expose no in-memory table")
	}
	n, err := db.NumRows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != tab.NumRows() {
		t.Fatalf("NumRows = %d, want %d", n, tab.NumRows())
	}
	attrs, err := db.Attributes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != tab.NumCols() {
		t.Fatalf("Attributes = %v, want %d columns", attrs, tab.NumCols())
	}

	q := datagen.BerkeleyQuery()
	sqlAns, err := db.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	memAns, err := hypdb.Open(tab).Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlAns.Rows) != len(memAns.Rows) {
		t.Fatalf("answers differ in shape: %d vs %d rows", len(sqlAns.Rows), len(memAns.Rows))
	}
	for i := range memAns.Rows {
		sr, mr := sqlAns.Rows[i], memAns.Rows[i]
		if sr.Treatment != mr.Treatment || sr.Count != mr.Count {
			t.Fatalf("row %d: %+v vs %+v", i, sr, mr)
		}
		if diff := sr.Avgs[0] - mr.Avgs[0]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %d avg: %v vs %v", i, sr.Avgs[0], mr.Avgs[0])
		}
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	// A query shape the per-handle count cache has not seen must hit the
	// closed database and fail. (Cached shapes keep answering — the memo
	// outlives the connection by design.)
	fresh := q
	fresh.Groupings = []string{"Department"}
	if _, err := db.Run(ctx, fresh); err == nil {
		t.Error("uncached Run succeeded after Close")
	}
}

// TestCloseIsNoOpForMemHandles pins the documented contract: in-memory
// handles close without error, repeatedly.
func TestCloseIsNoOpForMemHandles(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	db := hypdb.Open(tab)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestAnalyzeCountsOnlyBackend proves the default pipeline is genuinely
// counts-only: a relation stripped of its Materializer capability still
// supports the full detect/explain/resolve run with identical conclusions.
func TestAnalyzeCountsOnlyBackend(t *testing.T) {
	ctx := context.Background()
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	q := datagen.BerkeleyQuery()

	full, err := hypdb.Open(tab).Analyze(ctx, q, hypdb.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	db := hypdb.OpenSource(source.CountsOnly(mem.New(tab)))
	co, err := db.Analyze(ctx, q, hypdb.WithSeed(1))
	if err != nil {
		t.Fatalf("Analyze on counts-only relation: %v", err)
	}
	if len(co.Mediators) != len(full.Mediators) {
		t.Fatalf("counts-only mediators %v, want %v", co.Mediators, full.Mediators)
	}
	for i := range full.Mediators {
		if co.Mediators[i] != full.Mediators[i] {
			t.Fatalf("counts-only mediators %v, want %v", co.Mediators, full.Mediators)
		}
	}
	if len(co.DirectComparisons) != len(full.DirectComparisons) {
		t.Fatalf("comparison shape differs: %d vs %d", len(co.DirectComparisons), len(full.DirectComparisons))
	}
}
