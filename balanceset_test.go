package hypdb_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"hypdb/internal/core"
	"hypdb/internal/countcache"
	"hypdb/internal/dataset"
	"hypdb/source"
	"hypdb/source/mem"
)

// jointRef is a base relation plus one attribute holding the joint value of
// a variable set, built as a fold of Counts maps: its dictionary sorts the
// keys of one Counts map over the set, and every request holding the joint
// attribute folds a second Counts map over the expanded attributes. A
// single-variable balance test of the joint attribute is the reference the
// set-valued balance test must reproduce bit for bit.
type jointRef struct {
	source.Relation
	name   string
	parts  []string
	codeOf map[source.Key]int32
	labels []string
}

func newJointRef(t *testing.T, base source.Relation, name string, parts []string) *jointRef {
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
	r := &jointRef{Relation: base, name: name, parts: parts,
		codeOf: make(map[source.Key]int32, len(keys)), labels: make([]string, len(keys))}
	for i, k := range keys {
		r.codeOf[source.Key(k)] = int32(i)
		r.labels[i] = "v" + strconv.Itoa(i)
	}
	return r
}

func (r *jointRef) Backend() string { return r.Relation.Backend() + "|ref:" + r.name }

func (r *jointRef) Attributes() []string {
	return append(slices.Clip(r.Relation.Attributes()), r.name)
}

func (r *jointRef) HasAttribute(name string) bool {
	return name == r.name || r.Relation.HasAttribute(name)
}

func (r *jointRef) Labels(ctx context.Context, attr string) ([]string, error) {
	if attr == r.name {
		return r.labels, nil
	}
	return r.Relation.Labels(ctx, attr)
}

func (r *jointRef) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	pos := slices.Index(attrs, r.name)
	if pos < 0 {
		return r.Relation.Counts(ctx, attrs, where)
	}
	expanded := append(append(append([]string(nil), attrs[:pos]...), r.parts...), attrs[pos+1:]...)
	raw, err := r.Relation.Counts(ctx, expanded, where)
	if err != nil {
		return nil, err
	}
	np := len(r.parts)
	out := make(map[source.Key]int, len(raw))
	for k, n := range raw {
		code, ok := r.codeOf[k.Slice(pos, pos+np)]
		if !ok {
			panic("joint reference: unseen combination of the variable set")
		}
		folded := string(k.Slice(0, pos)) + string(dataset.EncodeKey(code)) + string(k.Slice(pos+np, k.Fields()))
		out[source.Key(folded)] += n
	}
	return out, nil
}

// DenseCounts declines, so source.Dense folds the reference's maps.
func (r *jointRef) DenseCounts(context.Context, []string, source.Predicate, int) (*dataset.DenseCounts, error) {
	return nil, nil
}

// compositeTable is a random table whose attribute A has 300 codes: from
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

// TestBalanceSetMatchesJointReference: the balance test of T against a
// variable set V equals, bit for bit, the single-variable test of V's joint
// attribute in the map-fold reference, under every counts-based method,
// with and without conditioning, for V in any order, on bare mem and SQL
// relations and on a count-cache view, whose test memo then serves a
// repeat. MIT's tables number V's tuples in encoded-key order, which A's
// 300 codes tell apart from numeric order.
func TestBalanceSetMatchesJointReference(t *testing.T) {
	ctx := context.Background()
	tab := compositeTable(t)
	bases := []struct {
		name string
		rel  source.Relation
	}{{"mem", mem.New(tab)}, {"sqldb", openSQLBacked(t, "balance_set_ref", tab)}}
	for _, base := range bases {
		cached := countcache.Wrap(base.rel, 0)
		views := []struct {
			name string
			rel  source.Relation
		}{{"bare", base.rel}, {"cached", cached}, {"memoized", cached}}
		for _, method := range []core.TestMethod{core.ChiSquaredMethod, core.MITMethod, core.HyMITMethod} {
			cfg := core.Config{Method: method, Seed: 5, Permutations: 100}
			for _, vars := range [][]string{{"A", "B"}, {"B", "C"}, {"B", "A"}, {"C", "A", "B"}} {
				for _, cond := range [][]string{nil, {"D"}} {
					ref := newJointRef(t, base.rel, "__joint", vars)
					want, err := cfg.TestBalance(ctx, ref, "T", []string{ref.name}, cond)
					if err != nil {
						t.Fatal(err)
					}
					for _, view := range views {
						got, err := cfg.TestBalance(ctx, view.rel, "T", vars, cond)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s %v: balance T ⊥ %v | %v = %+v, reference %+v",
								base.name, view.name, method, vars, cond, got, want)
						}
					}
				}
			}
		}
	}
}
