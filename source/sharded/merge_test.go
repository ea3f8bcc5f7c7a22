package sharded

import (
	"context"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/source"
	"hypdb/source/mem"
)

// mergeRows draws n rows over A, B, C for batch k. A's label "newK" and C's
// labels past the base shards' range first appear in batch k.
func mergeRows(rng *rand.Rand, n, k int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		a := fmt.Sprint("a", rng.Intn(8))
		if rng.Intn(4) == 0 {
			a = fmt.Sprint("new", k)
		}
		rows[i] = []string{a, fmt.Sprint("b", rng.Intn(4)), fmt.Sprint("c", rng.Intn(20+k))}
	}
	return rows
}

// memChild wraps rows as one mem relation, coded first-seen.
func memChild(t *testing.T, rows [][]string) source.Relation {
	t.Helper()
	b := dataset.NewBuilder("A", "B", "C")
	for _, r := range rows {
		b.MustAdd(r...)
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return mem.NewNamed(tab, "D")
}

// sameViews compares got and want, their restrictions, and a restriction
// of those.
func sameViews(t *testing.T, name string, got, want *View) {
	t.Helper()
	ctx := context.Background()
	sameRestriction(t, name, got, want)
	outer := dataset.Not{Pred: dataset.Eq{Attr: "B", Value: "b1"}}
	inner := dataset.In{Attr: "A", Values: []string{"a0", "a3", "new1", "new3", "new6"}}
	gr, err := got.Restrict(ctx, outer)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := want.Restrict(ctx, outer)
	if err != nil {
		t.Fatal(err)
	}
	sameRestriction(t, name+"/σ", gr.(*View), wr.(*View))
	gn, err := gr.Restrict(ctx, inner)
	if err != nil {
		t.Fatal(err)
	}
	wn, err := wr.Restrict(ctx, inner)
	if err != nil {
		t.Fatal(err)
	}
	sameRestriction(t, name+"/σ/σ", gn.(*View), wn.(*View))
}

// batchCounts tabulates rows directly in the coding of the dictionaries.
func batchCounts(rows [][]string, labels [][]string) map[source.Key]int {
	out := make(map[source.Key]int)
	codes := make([]int32, len(labels))
	for _, r := range rows {
		for i, l := range r {
			codes[i] = int32(slices.Index(labels[i], l))
		}
		out[dataset.EncodeKey(codes...)]++
	}
	return out
}

// TestAppendMergeMatchesUnmerged checks Append's size-tiered merging of
// delta partitions against a reference that never merges: New over the
// same base shards plus one mem child per batch. After every append,
// dictionaries, dense and sparse counts, restrictions and materialized
// rows must be identical; the partition count must follow the merge rule,
// popcount of the appends when batches are equal; a snapshot pinned
// before later merges must keep reading its own epoch; and each Delta must
// serve exactly its batch.
func TestAppendMergeMatchesUnmerged(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	base := []source.Relation{memChild(t, mergeRows(rng, 40, 0)), memChild(t, mergeRows(rng, 25, 0))}

	check := func(t *testing.T, sizes []int, pinAt int, popcount bool) {
		r, err := New(ctx, "D", base)
		if err != nil {
			t.Fatal(err)
		}
		children := slices.Clone(base)
		var (
			deltas       []int // the merge rule's delta row counts, oldest first
			pinned, pinW *View
			appends      int
		)
		for k, n := range sizes {
			rows := mergeRows(rng, n, k+1)
			res, err := r.Append(ctx, rows)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("after batch %d (%d rows)", k, n)
			if n > 0 {
				appends++
				children = append(children, memChild(t, rows))
				deltas = append(deltas, n)
				for m := len(deltas); m > 1 && deltas[m-2] <= deltas[m-1]; m-- {
					deltas = append(deltas[:m-2], deltas[m-2]+deltas[m-1])
				}
			}
			ref, err := New(ctx, "D", children)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.snap()
			sameViews(t, name, r.snap(), want)
			if got := r.NumPartitions(); got != len(base)+len(deltas) {
				t.Fatalf("%s: %d partitions, want %d", name, got, len(base)+len(deltas))
			}
			if got := r.NumPartitions(); popcount && got != len(base)+bits.OnesCount(uint(appends)) {
				t.Fatalf("%s: %d partitions, want %d shards + popcount(%d)", name, got, len(base), appends)
			}
			if n > 0 {
				delta := res.Delta.(*View)
				if delta.rows != n || !slices.EqualFunc(delta.labels, want.labels, slices.Equal) {
					t.Fatalf("%s: delta has %d rows and labels %q, want %d and %q", name, delta.rows, delta.labels, n, want.labels)
				}
				got, err := delta.Counts(ctx, want.attrs, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(got, batchCounts(rows, want.labels)) {
					t.Fatalf("%s: delta counts differ from the batch's", name)
				}
			}
			if k == pinAt {
				pinned, pinW = r.snap(), want
			}
		}
		sameViews(t, "pinned snapshot", pinned, pinW)
	}

	t.Run("mixed", func(t *testing.T) {
		check(t, []int{1, 50, 3, 200, 0, 7, 7, 2, 1, 1, 30}, 2, false)
	})
	t.Run("equal", func(t *testing.T) {
		sizes := slices.Repeat([]int{20}, 13)
		sizes[6] = 0
		check(t, sizes, 4, true)
	})
	// The first four mixed batches tier to one delta, as four equal ones do.
	t.Run("mixed prefix", func(t *testing.T) {
		check(t, []int{1, 50, 3, 200, 0}, 1, true)
	})
}
