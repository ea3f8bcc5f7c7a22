package source_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/internal/memsql"
	"hypdb/source"
	"hypdb/source/mem"
	"hypdb/source/sqldb"
)

func fixture(t *testing.T) *dataset.Table {
	t.Helper()
	b := dataset.NewBuilder("T", "A", "B")
	for _, r := range [][3]string{
		{"0", "x", "u"}, {"0", "x", "v"}, {"0", "y", "u"},
		{"1", "x", "u"}, {"1", "y", "v"}, {"1", "y", "v"},
	} {
		b.MustAdd(r[0], r[1], r[2])
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestKeyCodec(t *testing.T) {
	k := dataset.EncodeKey(3, 0, 70000)
	if k.Fields() != 3 {
		t.Fatalf("Fields = %d", k.Fields())
	}
	if got := k.Codes(); !reflect.DeepEqual(got, []int32{3, 0, 70000}) {
		t.Fatalf("Codes = %v", got)
	}
	if k.Field(2) != 70000 {
		t.Fatalf("Field(2) = %d", k.Field(2))
	}
	if got := k.Slice(1, 3).Codes(); !reflect.DeepEqual(got, []int32{0, 70000}) {
		t.Fatalf("Slice(1,3) = %v", got)
	}
}

func TestMaterializeHelper(t *testing.T) {
	ctx := context.Background()
	tab := fixture(t)
	rel := mem.New(tab)
	got, err := source.Materialize(ctx, rel)
	if err != nil {
		t.Fatal(err)
	}
	if got != tab {
		t.Error("mem Materialize should return the backing table")
	}
	if _, err := source.Materialize(ctx, source.CountsOnly(rel)); !errors.Is(err, hyperr.ErrNeedsMaterialization) {
		t.Errorf("counts-only Materialize err = %v, want ErrNeedsMaterialization", err)
	}
}

// countingCounter wraps a relation and records how often the dense path is
// actually taken, so tests can tell a forwarded capability from the
// generic sparse fallback (both produce identical counts).
type countingCounter struct {
	source.Relation
	denseCalls int
}

func (c *countingCounter) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	c.denseCalls++
	return source.Dense(ctx, c.Relation, attrs, where, budget)
}

func TestCountsOnlyForwardsDenseCounter(t *testing.T) {
	ctx := context.Background()
	inner := &countingCounter{Relation: source.CountsOnly(mem.New(fixture(t)))}
	wrapped := source.CountsOnly(inner)

	// The wrapper must still advertise the capability...
	if _, ok := wrapped.(source.DenseCounter); !ok {
		t.Fatal("CountsOnly dropped the DenseCounter capability")
	}
	// ...and route Dense through the backend's own dense path.
	dc, err := source.Dense(ctx, wrapped, []string{"A", "B"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dc == nil || dc.Total != 6 {
		t.Fatalf("dense counts through CountsOnly = %+v, want total 6", dc)
	}
	if inner.denseCalls == 0 {
		t.Error("CountsOnly fell back to the sparse path instead of forwarding DenseCounts")
	}

	// The capability must survive restriction, and the row-hiding guarantee
	// must hold on both the wrapper and its restrictions.
	view, err := wrapped.Restrict(ctx, dataset.Eq{Attr: "T", Value: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := view.(source.DenseCounter); !ok {
		t.Error("CountsOnly restriction dropped the DenseCounter capability")
	}
	if _, err := source.Materialize(ctx, view); !errors.Is(err, hyperr.ErrNeedsMaterialization) {
		t.Errorf("restricted counts-only Materialize err = %v, want ErrNeedsMaterialization", err)
	}
	if card, err := source.Card(ctx, wrapped, "A"); err != nil || card != 2 {
		t.Errorf("Card through CountsOnly = %d, %v, want 2, nil", card, err)
	}
}

// TestCountsOnlyForwardsRootOrder: CountsOnly keeps the wrapped backend's
// identity, and with it RestrictsInRootOrder's answer, on the wrapper and
// on its restrictions, so a count cache above a counts-only SQL relation
// still derives restricted dictionaries, and one above mem still does not.
func TestCountsOnlyForwardsRootOrder(t *testing.T) {
	ctx := context.Background()
	memsql.Register("src_root_order", fixture(t))
	t.Cleanup(func() { memsql.Unregister("src_root_order") })
	conn, err := memsql.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sq, err := sqldb.Open(ctx, conn, "src_root_order")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sq.Close() })

	for _, tc := range []struct {
		name string
		rel  source.Relation
		want bool
	}{
		{"sqldb", sq, true},
		{"mem", mem.New(fixture(t)), false},
	} {
		wrapped := source.CountsOnly(tc.rel)
		view, err := wrapped.Restrict(ctx, dataset.Eq{Attr: "T", Value: "1"})
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range []source.Relation{tc.rel, wrapped, view} {
			if got := source.RestrictsInRootOrder(rel); got != tc.want {
				t.Errorf("%s: RestrictsInRootOrder(%T) = %v, want %v", tc.name, rel, got, tc.want)
			}
		}
	}
}

func TestMemRestrictCompacts(t *testing.T) {
	ctx := context.Background()
	rel := mem.New(fixture(t))
	view, err := rel.Restrict(ctx, dataset.Eq{Attr: "T", Value: "1"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := view.NumRows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restricted rows = %d, want 3", n)
	}
	labels, err := view.Labels(ctx, "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 || labels[0] != "1" {
		t.Fatalf("restricted T dictionary = %v, want [1]", labels)
	}
	if rel.Backend() == view.Backend() {
		t.Error("restriction must change the backend identity")
	}
}
