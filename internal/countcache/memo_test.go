package countcache

import (
	"context"
	"strconv"
	"testing"

	"hypdb/internal/dataset"
	"hypdb/source/mem"
)

func memoLen(m *Memo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

func fillMemo(m *Memo, prefix string, n int) {
	for i := 0; i < n; i++ {
		m.Store(Tests, prefix+strconv.Itoa(i), i)
	}
}

// TestMemoBounded: one view's memo never holds more than maxMemoEntries,
// and a tree of restricted views never more than maxTreeMemoFactor times
// that, however many results are stored.
func TestMemoBounded(t *testing.T) {
	ctx := context.Background()
	c := Wrap(mem.New(testTable(t)), 0)
	root := c.Memo()
	if root == nil {
		t.Fatal("an immutable root handed out no memo")
	}
	fillMemo(root, "r", maxMemoEntries+50)
	if got := memoLen(root); got != maxMemoEntries {
		t.Fatalf("root memo holds %d results, want the cap %d", got, maxMemoEntries)
	}
	if v, ok := root.Load(Tests, "r"+strconv.Itoa(maxMemoEntries+49)); !ok || v != maxMemoEntries+49 {
		t.Fatalf("the latest result was not kept: %v, %t", v, ok)
	}

	// Nine restricted views, each filled past the per-view cap: together
	// they would hold 10× the cap, so the tree bound must bite.
	var views []*Relation
	for _, attr := range []string{"A", "B", "C"} {
		for v := 0; v < 3; v++ {
			child, err := c.Restrict(ctx, dataset.Eq{Attr: attr, Value: strconv.Itoa(v)})
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, child.(*Relation))
		}
	}
	for i, v := range views {
		fillMemo(v.Memo(), "c"+strconv.Itoa(i)+"/", maxMemoEntries+50)
		if got := memoLen(v.Memo()); got > maxMemoEntries {
			t.Fatalf("restricted view %d holds %d results, over the cap %d", i, got, maxMemoEntries)
		}
	}
	total := memoLen(root)
	for _, v := range views {
		total += memoLen(v.Memo())
	}
	st := c.Stats()
	if limit := maxMemoEntries * maxTreeMemoFactor; st.MemoEntries != total || total > limit {
		t.Fatalf("tree holds %d results (ledger %d), want ≤ %d and the ledger exact", total, st.MemoEntries, limit)
	}
	if st.MemoHits != 1 || st.MemoMisses != 0 {
		t.Errorf("memo lookups = %d hits, %d misses; want 1, 0", st.MemoHits, st.MemoMisses)
	}

	// Families never see each other's keys and count their lookups apart.
	if _, ok := root.Load(KeyEntropies, "r"+strconv.Itoa(maxMemoEntries+49)); ok {
		t.Error("a key-entropy lookup found a test result stored under the same key")
	}
	if st := c.Stats(); st.KeyHits != 0 || st.KeyMisses != 1 || st.MemoHits != 1 || st.MemoMisses != 0 {
		t.Errorf("lookups = tests %d/%d, keys %d/%d hits/misses; want 1/0, 0/1",
			st.MemoHits, st.MemoMisses, st.KeyHits, st.KeyMisses)
	}
}

// TestMemoDroppedWithViews: a restricted view leaving its parent takes its
// results with it and returns them to the tree ledger; in-flight readers
// of the dropped view keep a working memo that is no longer charged.
func TestMemoDroppedWithViews(t *testing.T) {
	ctx := context.Background()
	c := Wrap(mem.New(testTable(t)), 0)
	child, err := c.Restrict(ctx, dataset.Eq{Attr: "A", Value: "0"})
	if err != nil {
		t.Fatal(err)
	}
	grandchild, err := child.Restrict(ctx, dataset.Eq{Attr: "B", Value: "1"})
	if err != nil {
		t.Fatal(err)
	}
	fillMemo(c.Memo(), "r", 3)
	fillMemo(child.(*Relation).Memo(), "c", 5)
	fillMemo(grandchild.(*Relation).Memo(), "g", 7)
	if got := c.Stats().MemoEntries; got != 15 {
		t.Fatalf("ledger holds %d results, want 15", got)
	}

	child.(*Relation).dropAllViews()
	for name, v := range map[string]*Relation{"child": child.(*Relation), "grandchild": grandchild.(*Relation)} {
		if got := memoLen(v.Memo()); got != 0 {
			t.Errorf("dropped %s memo holds %d results", name, got)
		}
	}
	if got := c.Stats().MemoEntries; got != 3 {
		t.Fatalf("ledger holds %d results after the drop, want the root's 3", got)
	}
	m := child.(*Relation).Memo()
	m.Store(Tests, "late", 1)
	if v, ok := m.Load(Tests, "late"); !ok || v != 1 {
		t.Error("a dropped view's memo stopped working for in-flight readers")
	}
	if got := c.Stats().MemoEntries; got != 3 {
		t.Errorf("a dropped view's late result was charged to the tree: ledger %d", got)
	}
}

// TestMemoPerVersion: a versioned root, whose data moves with every
// append, hands out no memo; each pin carries its own, as does every
// restricted view (restrictions are taken against one snapshot). Lookups
// anywhere in the tree count in the root's Stats.
func TestMemoPerVersion(t *testing.T) {
	ctx := context.Background()
	c := Wrap(shardedFixture(t), 0)
	if c.Memo() != nil {
		t.Fatal("a versioned root handed out a memo")
	}
	restricted, err := c.Restrict(ctx, dataset.Eq{Attr: "G", Value: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.(*Relation).Memo() == nil {
		t.Error("a restriction of one snapshot handed out no memo")
	}
	p1 := c.Pin()
	p1.Memo().Store(Tests, "k", 1)
	if _, err := c.Append(ctx, [][]string{{"a", "1"}}); err != nil {
		t.Fatal(err)
	}
	p2 := c.Pin()
	if p1.Memo() == p2.Memo() {
		t.Fatal("pins at different versions share one memo")
	}
	if _, ok := p2.Memo().Load(Tests, "k"); ok {
		t.Fatal("a pin at the new version sees a result of the old version")
	}
	pinnedChild, err := p2.Restrict(ctx, dataset.Eq{Attr: "G", Value: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if m := pinnedChild.(*Relation).Memo(); m == nil || m == p2.Memo() {
		t.Error("a pin's restricted view must carry a memo of its own")
	}
	if st := c.Stats(); st.MemoHits != 0 || st.MemoMisses != 1 {
		t.Errorf("root Stats count %d hits, %d misses; want the pin's 0, 1", st.MemoHits, st.MemoMisses)
	}
}
