package sharded

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/internal/hyperr"
	"hypdb/source"
	"hypdb/source/mem"
)

// restrictByAdmit is the reference restriction: the surviving labels of
// every restricted child are admitted into a fresh dictionary in shard
// order, the coding View.Restrict must reproduce from the root's index.
func restrictByAdmit(ctx context.Context, v *View, where source.Predicate) (*View, error) {
	d := newDict(v.attrs)
	var parts []*partition
	rows := 0
	for _, p := range v.parts {
		child, err := p.rel.Restrict(ctx, where)
		if err != nil {
			if v.skipChild(ctx, err) {
				continue
			}
			return nil, err
		}
		np, err := d.admit(ctx, child, v.attrs)
		if err != nil {
			return nil, err
		}
		parts = append(parts, np)
		rows += np.rows
	}
	return &View{name: v.name, backend: v.backend + "|ref", attrs: v.attrs, byName: v.byName,
		labels: d.labels, parts: parts, rows: rows, ver: v.ver, deg: v.deg, root: v.root}, nil
}

// sameRestriction compares two views' labels, materialized codes, and
// dense and sparse counts over every attribute, every pair of attributes
// and all of them.
func sameRestriction(t *testing.T, name string, got, want *View) {
	t.Helper()
	ctx := context.Background()
	for _, a := range want.attrs {
		gl, err := got.Labels(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		wl, _ := want.Labels(ctx, a)
		if !slices.Equal(gl, wl) {
			t.Errorf("%s: %s labels %q, want %q", name, a, gl, wl)
		}
	}
	gt, err := got.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := want.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range want.attrs {
		if g, w := gt.MustColumn(a).Codes(), wt.MustColumn(a).Codes(); !slices.Equal(g, w) {
			t.Errorf("%s: %s materialized codes differ", name, a)
		}
	}
	sets := [][]string{want.attrs}
	for i, a := range want.attrs {
		sets = append(sets, []string{a})
		for _, b := range want.attrs[i+1:] {
			sets = append(sets, []string{a, b}, []string{b, a})
		}
	}
	for _, attrs := range sets {
		g, err := got.DenseCounts(ctx, attrs, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.DenseCounts(ctx, attrs, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: DenseCounts%v differ", name, attrs)
		}
		gm, err := got.Counts(ctx, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := want.Counts(ctx, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(gm, wm) {
			t.Errorf("%s: Counts%v differ", name, attrs)
		}
	}
}

func restrictTable(t *testing.T, seed int64, rows int) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("A", "B", "C")
	for range rows {
		b.MustAdd(fmt.Sprint("a", rng.Intn(12)), fmt.Sprint("b", rng.Intn(5)), fmt.Sprint("c", rng.Intn(30)))
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestRestrictCodesMatchDictAdmit checks that restricted views coded
// through the root dictionary's index are the views a fresh dictionary
// admitting every restricted child in shard order gives: nested
// restrictions, labels first seen in a delta partition, an empty
// restriction, and a degraded skip.
func TestRestrictCodesMatchDictAdmit(t *testing.T) {
	ctx := context.Background()
	r, err := Partition(restrictTable(t, 1, 600), "D", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		// Deltas bring labels no initial shard has.
		if _, err := r.Append(ctx, [][]string{
			{fmt.Sprint("new", i), "b1", fmt.Sprint("c", 40+i)},
			{"a3", fmt.Sprint("bnew", i), "c2"},
			{fmt.Sprint("new", i), "b0", "c0"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	root := r.snap()
	preds := map[string]source.Predicate{
		"in":         dataset.In{Attr: "B", Values: []string{"b1", "b3", "bnew2"}},
		"delta":      dataset.In{Attr: "A", Values: []string{"new1", "new3", "a0"}},
		"delta only": dataset.In{Attr: "A", Values: []string{"new2"}},
		"empty":      dataset.Eq{Attr: "A", Value: "never"},
		"not":        dataset.Not{Pred: dataset.Eq{Attr: "B", Value: "b0"}},
	}
	nested := dataset.In{Attr: "C", Values: []string{"c2", "c41", "c7", "c0"}}
	for name, where := range preds {
		got, err := root.Restrict(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		want, err := restrictByAdmit(ctx, root, where)
		if err != nil {
			t.Fatal(err)
		}
		sameRestriction(t, name, got.(*View), want)
		got2, err := got.Restrict(ctx, nested)
		if err != nil {
			t.Fatal(err)
		}
		want2, err := restrictByAdmit(ctx, want, nested)
		if err != nil {
			t.Fatal(err)
		}
		sameRestriction(t, name+"/nested", got2.(*View), want2)
	}

	// A degraded skip drops the lost child's rows from both codings alike.
	tab := restrictTable(t, 2, 300)
	lost := &lostChild{Relation: mem.NewNamed(restrictTable(t, 3, 300), "D")}
	dr, err := New(ctx, "D", []source.Relation{lost, mem.NewNamed(tab, "D")})
	if err != nil {
		t.Fatal(err)
	}
	dr.SetDegradedReads(true)
	lost.down.Store(true)
	where := dataset.In{Attr: "C", Values: []string{"c1", "c2", "c3", "c29"}}
	got, err := dr.Restrict(ctx, where)
	if err != nil {
		t.Fatal(err)
	}
	want, err := restrictByAdmit(ctx, dr.snap(), where)
	if err != nil {
		t.Fatal(err)
	}
	if dr.DegradedServes() != 2 {
		t.Errorf("degraded serves %d, want 2", dr.DegradedServes())
	}
	sameRestriction(t, "degraded", got.(*View), want)
}

// lostChild fails Restrict as an unreachable peer while down is set.
type lostChild struct {
	source.Relation
	down atomic.Bool
}

func (l *lostChild) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	if l.down.Load() {
		return nil, fmt.Errorf("lost child: %w", hyperr.ErrPeerUnavailable)
	}
	return l.Relation.Restrict(ctx, where)
}

// TestRestrictDuringAppend restricts snapshots while appends extend the
// root dictionary they are coded through: every restriction must match
// the reference coding of its own snapshot.
func TestRestrictDuringAppend(t *testing.T) {
	ctx := context.Background()
	r, err := Partition(restrictTable(t, 4, 200), "D", 2)
	if err != nil {
		t.Fatal(err)
	}
	where := dataset.Not{Pred: dataset.Eq{Attr: "B", Value: "b2"}}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 40 {
			if _, err := r.Append(ctx, [][]string{{fmt.Sprint("x", i), fmt.Sprint("b", i%7), "c1"}}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				snap := r.snap()
				got, err := snap.Restrict(ctx, where)
				if err != nil {
					errs <- err
					return
				}
				want, err := restrictByAdmit(ctx, snap, where)
				if err != nil {
					errs <- err
					return
				}
				for _, a := range snap.attrs {
					gl, _ := got.Labels(ctx, a)
					wl, _ := want.Labels(ctx, a)
					if !slices.Equal(gl, wl) {
						errs <- fmt.Errorf("%s labels %q, want %q", a, gl, wl)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
