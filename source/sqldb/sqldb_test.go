package sqldb_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/memsql"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sqldb"
)

// testTable builds a small table with a known joint distribution.
func testTable(t *testing.T) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("T", "Z", "Y")
	rows := [][3]string{
		{"a", "x", "1"}, {"a", "x", "1"}, {"a", "y", "0"},
		{"b", "x", "0"}, {"b", "y", "1"}, {"b", "y", "1"},
		{"a", "y", "0"}, {"b", "x", "0"}, {"a", "x", "1"}, {"b", "y", "0"},
	}
	for _, r := range rows {
		b.MustAdd(r[0], r[1], r[2])
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// openBoth registers the table under name and returns matching sqldb and
// mem relations.
func openBoth(t *testing.T, name string, tab *dataset.Table) (*sqldb.Relation, *mem.Relation) {
	t.Helper()
	memsql.Register(name, tab)
	t.Cleanup(func() { memsql.Unregister(name) })
	db, err := memsql.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sqldb.Open(context.Background(), db, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	return rel, mem.New(tab)
}

// decodedCounts renders a counts map into label-space so results from
// backends with different dictionary orders compare equal.
func decodedCounts(t *testing.T, rel source.Relation, attrs []string, where source.Predicate) map[string]int {
	t.Helper()
	ctx := context.Background()
	counts, err := rel.Counts(ctx, attrs, where)
	if err != nil {
		t.Fatalf("Counts(%v): %v", attrs, err)
	}
	dicts := make([][]string, len(attrs))
	for i, a := range attrs {
		dicts[i], err = rel.Labels(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make(map[string]int, len(counts))
	for k, c := range counts {
		codes := k.Codes()
		key := ""
		for i, code := range codes {
			key += dicts[i][code] + "|"
		}
		out[key] += c
	}
	return out
}

func TestSQLDBMatchesMemCounts(t *testing.T) {
	tab := testTable(t)
	sq, mm := openBoth(t, "counts_eq", tab)
	ctx := context.Background()

	if got, want := sq.Attributes(), mm.Attributes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("attributes = %v, want %v", got, want)
	}
	n1, err := sq.NumRows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != tab.NumRows() {
		t.Fatalf("NumRows = %d, want %d", n1, tab.NumRows())
	}

	where := dataset.Eq{Attr: "T", Value: "a"}
	for _, attrs := range [][]string{nil, {"T"}, {"T", "Z"}, {"T", "Z", "Y"}, {"Y", "T"}} {
		for _, pred := range []source.Predicate{nil, where} {
			got := decodedCounts(t, sq, attrs, pred)
			want := decodedCounts(t, mm, attrs, pred)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counts over %v (pred %v): %v, want %v", attrs, pred, got, want)
			}
		}
	}

	// Labels are the sorted active domain.
	labels, err := sq.Labels(ctx, "Z")
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(labels) || len(labels) != 2 {
		t.Errorf("Z labels = %v, want 2 sorted labels", labels)
	}
}

func TestSQLDBRestrictCompactsDictionaries(t *testing.T) {
	tab := testTable(t)
	sq, mm := openBoth(t, "restrict_eq", tab)
	ctx := context.Background()
	where := dataset.Eq{Attr: "T", Value: "a"}

	sv, err := sq.Restrict(ctx, where)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := mm.Restrict(ctx, where)
	if err != nil {
		t.Fatal(err)
	}
	// The treatment dictionary compacts to the single selected value, as
	// the in-memory backend's Select does.
	sl, err := sv.Labels(ctx, "T")
	if err != nil {
		t.Fatal(err)
	}
	ml, err := mv.Labels(ctx, "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(sl) != 1 || len(ml) != 1 || sl[0] != ml[0] {
		t.Fatalf("restricted T dictionaries: sqldb %v, mem %v, want one shared value", sl, ml)
	}
	got := decodedCounts(t, sv, []string{"Z", "Y"}, nil)
	want := decodedCounts(t, mv, []string{"Z", "Y"}, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restricted counts: %v, want %v", got, want)
	}
}

func TestSQLDBMaterializeRoundTrips(t *testing.T) {
	tab := testTable(t)
	sq, _ := openBoth(t, "materialize_eq", tab)
	mt, err := sq.Materialize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumRows() != tab.NumRows() || mt.NumCols() != tab.NumCols() {
		t.Fatalf("materialized %dx%d, want %dx%d", mt.NumRows(), mt.NumCols(), tab.NumRows(), tab.NumCols())
	}
	// Row multiset must match (order preserved by the driver).
	for i := 0; i < tab.NumRows(); i++ {
		for _, col := range tab.Columns() {
			want := tab.MustColumn(col).Value(i)
			got := mt.MustColumn(col).Value(i)
			if got != want {
				t.Fatalf("row %d col %s = %q, want %q", i, col, got, want)
			}
		}
	}
}

// TestSQLDBCountCacheAndStats: a bare handle sends one GROUP BY per count
// call, and the session count cache above it absorbs the repeats.
func TestSQLDBCountCacheAndStats(t *testing.T) {
	tab := testTable(t)
	sq, _ := openBoth(t, "cache_stats", tab)
	ctx := context.Background()
	attrs := []string{"T", "Z"}
	for i := 0; i < 3; i++ {
		if _, err := sq.Counts(ctx, attrs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sq.DenseCounts(ctx, attrs, nil, 0); err != nil {
		t.Fatal(err)
	}
	if st := sq.Stats(); st.CountQueries != 4 || st.DictQueries != 2 {
		t.Errorf("bare handle stats = %+v, want 4 count queries (one per call) and 2 dictionary loads", st)
	}

	cached := countcache.Wrap(sq, 0)
	memsql.ResetStats()
	for i := 0; i < 3; i++ {
		if _, err := cached.Counts(ctx, attrs, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := source.Tabulate(ctx, cached, attrs); err != nil {
			t.Fatal(err)
		}
	}
	if st := memsql.SnapshotStats(); st.GroupBys != 1 {
		t.Errorf("count cache sent %d GROUP BY queries for six identical reads, want 1", st.GroupBys)
	}
}

func TestSQLDBCloseIsIdempotent(t *testing.T) {
	tab := testTable(t)
	memsql.Register("close_me", tab)
	defer memsql.Unregister("close_me")
	db, err := memsql.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sqldb.Open(context.Background(), db, "close_me")
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := rel.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The *sql.DB is really closed.
	if _, err := rel.Counts(context.Background(), []string{"T"}, nil); err == nil {
		t.Error("Counts succeeded after Close")
	}
}

func TestCountsOnlyRefusesMaterialization(t *testing.T) {
	tab := testTable(t)
	sq, _ := openBoth(t, "counts_only", tab)
	rel := source.CountsOnly(sq)
	if _, err := source.Materialize(context.Background(), rel); !errors.Is(err, hyperr.ErrNeedsMaterialization) {
		t.Fatalf("Materialize on counts-only = %v, want ErrNeedsMaterialization", err)
	}
	// Restriction keeps the guarantee.
	rv, err := rel.Restrict(context.Background(), dataset.Eq{Attr: "T", Value: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := source.Materialize(context.Background(), rv); !errors.Is(err, hyperr.ErrNeedsMaterialization) {
		t.Fatalf("Materialize on restricted counts-only = %v, want ErrNeedsMaterialization", err)
	}
}
