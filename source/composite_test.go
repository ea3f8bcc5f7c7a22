package source_test

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"hypdb/internal/core"
	"hypdb/internal/dataset"
	"hypdb/source"
	"hypdb/source/mem"
)

// mapComposite is the composite attribute as a fold of Counts maps, kept
// as the reference the composite must reproduce: its dictionary sorts the
// keys of one Counts map over the parts, and every request holding the
// composite folds a second Counts map over the expanded attributes. It does
// not implement DenseCounter, so source.Dense folds its maps too.
type mapComposite struct {
	source.Relation
	name   string
	parts  []string
	codeOf map[source.Key]int32
	labels []string
}

func newMapComposite(t *testing.T, base source.Relation, name string, parts []string) *mapComposite {
	t.Helper()
	counts, err := base.Counts(context.Background(), parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	c := &mapComposite{Relation: base, name: name, parts: parts,
		codeOf: make(map[source.Key]int32, len(keys)), labels: make([]string, len(keys))}
	for i, k := range keys {
		c.codeOf[source.Key(k)] = int32(i)
		c.labels[i] = "v" + strconv.Itoa(i)
	}
	return c
}

func (c *mapComposite) Backend() string { return c.Relation.Backend() + "|ref:" + c.name }

func (c *mapComposite) Attributes() []string { return append(c.Relation.Attributes(), c.name) }

func (c *mapComposite) HasAttribute(name string) bool {
	return name == c.name || c.Relation.HasAttribute(name)
}

func (c *mapComposite) Labels(ctx context.Context, attr string) ([]string, error) {
	if attr == c.name {
		return c.labels, nil
	}
	return c.Relation.Labels(ctx, attr)
}

func (c *mapComposite) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	pos := -1
	for i, a := range attrs {
		if a == c.name {
			pos = i
		}
	}
	if pos < 0 {
		return c.Relation.Counts(ctx, attrs, where)
	}
	expanded := append(append(append([]string(nil), attrs[:pos]...), c.parts...), attrs[pos+1:]...)
	raw, err := c.Relation.Counts(ctx, expanded, where)
	if err != nil {
		return nil, err
	}
	np := len(c.parts)
	out := make(map[source.Key]int, len(raw))
	for k, n := range raw {
		code, ok := c.codeOf[k.Slice(pos, pos+np)]
		if !ok {
			panic("reference composite: unseen constituent combination")
		}
		folded := string(k.Slice(0, pos)) + string(dataset.EncodeKey(code)) + string(k.Slice(pos+np, k.Fields()))
		out[source.Key(folded)] += n
	}
	return out, nil
}

// sparseBase hides the dense path of a relation, so every tabulation of
// the composite's constituents comes back in the sparse form.
type sparseBase struct{ source.Relation }

func (sparseBase) DenseCounts(context.Context, []string, source.Predicate, int) (*dataset.DenseCounts, error) {
	return nil, nil
}

// compositeTable is a random table whose constituent A has 300 codes: from
// code 256 on, encoded-key order and numeric order part ways.
func compositeTable(t *testing.T) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	b := dataset.NewBuilder("T", "A", "B", "C", "D")
	for i := 0; i < 3000; i++ {
		a := rng.Intn(300)
		tr := rng.Intn(2)
		if a%3 == 0 && rng.Intn(3) == 0 {
			tr = 1 // a mild T–A dependence, so the balance tests are not all trivial
		}
		b.MustAdd(strconv.Itoa(tr), strconv.Itoa(a), strconv.Itoa(rng.Intn(3)),
			strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(2)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestCompositeMatchesMapReference: the composite's labels, cardinality,
// Counts, DenseCounts and Tabulate views equal those of the map-fold
// reference on dense and sparse bases, with the composite at every position,
// under predicates on a constituent and on another attribute, within and
// above the cell budget — whichever call builds the dictionary, including
// racing ones. The balance test's MIT and HyMIT results agree bit for bit.
func TestCompositeMatchesMapReference(t *testing.T) {
	ctx := context.Background()
	tab := compositeTable(t)
	const name = "__joint"
	parts := []string{"A", "B"}
	requests := [][]string{{name}, {name, "T", "C"}, {"T", name, "C"}, {"T", "C", name}}
	wheres := []source.Predicate{nil, dataset.Eq{Attr: "D", Value: "1"}, dataset.In{Attr: "B", Values: []string{"0", "2"}}}
	firsts := map[string]func(rel source.Relation) error{
		"labels": func(rel source.Relation) error {
			_, err := rel.Labels(ctx, name)
			return err
		},
		"dense": func(rel source.Relation) error {
			_, err := source.Dense(ctx, rel, []string{"C", name}, nil, 0)
			return err
		},
		"predicated": func(rel source.Relation) error {
			_, err := rel.Counts(ctx, []string{name, "D"}, wheres[2])
			return err
		},
	}
	bases := map[string]source.Relation{"dense": mem.New(tab), "sparse": sparseBase{mem.New(tab)}}
	for bname, base := range bases {
		ref := newMapComposite(t, base, name, parts)
		for fname, first := range firsts {
			t.Run(bname+"/"+fname+"-first", func(t *testing.T) {
				comp, err := source.WithComposite(base, name, parts)
				if err != nil {
					t.Fatal(err)
				}
				if err := first(comp); err != nil {
					t.Fatal(err)
				}
				labels, err := comp.Labels(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(labels, ref.labels) {
					t.Fatalf("labels: %d entries, reference %d", len(labels), len(ref.labels))
				}
				if card, err := source.Card(ctx, comp, name); err != nil || card != len(ref.labels) {
					t.Fatalf("Card = %d, %v; want %d", card, err, len(ref.labels))
				}
				for _, attrs := range requests {
					for _, where := range wheres {
						got, err := comp.Counts(ctx, attrs, where)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := ref.Counts(ctx, attrs, where)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("Counts(%v, %v): %d cells, reference %d", attrs, where, len(got), len(want))
						}
						for _, budget := range []int{0, 64} {
							got, err := source.Dense(ctx, comp, attrs, where, budget)
							if err != nil {
								t.Fatal(err)
							}
							want, _ := source.Dense(ctx, ref, attrs, where, budget)
							if budget == 0 && got == nil {
								t.Errorf("Dense(%v, %v) declined a view within the default budget", attrs, where)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("Dense(%v, %v, budget %d) differs from the reference", attrs, where, budget)
							}
						}
					}
					got, err := source.Tabulate(ctx, comp, attrs)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := source.Tabulate(ctx, ref, attrs)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("Tabulate(%v) differs from the reference", attrs)
					}
				}
			})
		}
	}

	// Racing first requests build one dictionary: every reader sees the
	// reference's codes.
	base := mem.New(tab)
	ref := newMapComposite(t, base, name, parts)
	comp, err := source.WithComposite(base, name, parts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, where := range append(wheres, nil) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			attrs := requests[i%len(requests)]
			got, err := source.Dense(ctx, comp, attrs, where, 0)
			want, _ := source.Dense(ctx, ref, attrs, where, 0)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent Dense(%v, %v) differs from the reference (err %v)", attrs, where, err)
			}
		}()
	}
	wg.Wait()

	// The balance test over the composite of {A, B} (or {B, C}) matches the
	// single-variable test of the reference's composite attribute.
	for _, method := range []core.TestMethod{core.MITMethod, core.HyMITMethod} {
		cfg := core.Config{Method: method, Seed: 5, Permutations: 300}
		for _, vars := range [][]string{{"A", "B"}, {"B", "C"}} {
			for _, cond := range [][]string{nil, {"D"}} {
				base := mem.New(tab)
				got, err := cfg.TestBalance(ctx, base, "T", vars, cond)
				if err != nil {
					t.Fatal(err)
				}
				ref := newMapComposite(t, base, "__hypdb_composite", vars)
				want, err := cfg.TestBalance(ctx, ref, "T", []string{ref.name}, cond)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v balance T ⊥ %v | %v = %+v, reference %+v", method, vars, cond, got, want)
				}
			}
		}
	}
}

// spareAttrs is a relation whose attribute list has spare capacity, as a
// backend that builds its list with append may return.
type spareAttrs struct {
	source.Relation
	attrs []string
}

func (s spareAttrs) Attributes() []string { return s.attrs }

// TestCompositeAttributesDoNotAlias: two composites over one base each
// list their own virtual attribute, however much spare capacity the
// base's list has.
func TestCompositeAttributesDoNotAlias(t *testing.T) {
	b := dataset.NewBuilder("A", "B")
	b.MustAdd("0", "1")
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	base := spareAttrs{Relation: mem.New(tab), attrs: make([]string, 2, 8)}
	copy(base.attrs, []string{"A", "B"})
	x, err := source.WithComposite(base, "X", []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	y, err := source.WithComposite(base, "Y", []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := x.Attributes(), y.Attributes()
	if !reflect.DeepEqual(xs, []string{"A", "B", "X"}) || !reflect.DeepEqual(ys, []string{"A", "B", "Y"}) {
		t.Fatalf("composite attributes %v and %v, want [A B X] and [A B Y]", xs, ys)
	}
}
