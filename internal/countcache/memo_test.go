package countcache

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

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

// TestMemoDoSingleFlight: concurrent Do calls on one key run compute once
// and share its value; a failed computation reaches its own caller only,
// and a waiter then computes; so does a panic, and nothing of the panicked
// computation is kept; a waiter whose context ends returns at once; and
// results kept by Do obey the per-view bound and the tree ledger, or the
// per-memo bound for a memo of no view. Shared objects are built once the
// same way.
func TestMemoDoSingleFlight(t *testing.T) {
	ctx := context.Background()
	// lead starts a Do on key whose compute blocks until release is closed,
	// and returns once compute has started; the call's outcome arrives on
	// the returned channel.
	type outcome struct {
		v   any
		err error
	}
	lead := func(m *Memo, key string, release chan struct{}, v any, err error) <-chan outcome {
		started := make(chan struct{})
		out := make(chan outcome, 1)
		go func() {
			got, gotErr := m.Do(ctx, Tests, key, func() (any, error) {
				close(started)
				<-release
				return v, err
			})
			out <- outcome{got, gotErr}
		}()
		<-started
		return out
	}
	// stillWaiting fails the test when a call on out returns before its
	// leader was released.
	stillWaiting := func(t *testing.T, out <-chan outcome) {
		t.Helper()
		select {
		case o := <-out:
			t.Fatalf("a waiter returned (%v, %v) while the key was still being computed", o.v, o.err)
		case <-time.After(50 * time.Millisecond):
		}
	}

	t.Run("one compute", func(t *testing.T) {
		c := Wrap(mem.New(testTable(t)), 0)
		m := c.Memo()
		release := make(chan struct{})
		first := lead(m, "k", release, "leader", nil)
		const waiters = 7
		var computes atomic.Int64
		out := make(chan outcome, waiters)
		for range waiters {
			go func() {
				v, err := m.Do(ctx, Tests, "k", func() (any, error) {
					computes.Add(1)
					return "waiter", nil
				})
				out <- outcome{v, err}
			}()
		}
		stillWaiting(t, out)
		close(release)
		if o := <-first; o.v != "leader" || o.err != nil {
			t.Fatalf("leader got (%v, %v)", o.v, o.err)
		}
		for range waiters {
			if o := <-out; o.v != "leader" || o.err != nil {
				t.Errorf("waiter got (%v, %v), want the leader's value", o.v, o.err)
			}
		}
		if n := computes.Load(); n != 0 {
			t.Errorf("waiters computed the key %d times", n)
		}
		if st := c.Stats(); st.MemoMisses != 1 || st.MemoHits != waiters || st.MemoEntries != 1 {
			t.Errorf("stats %+v; want 1 miss, %d hits, 1 entry", st, waiters)
		}
	})

	t.Run("failed leader", func(t *testing.T) {
		m := Wrap(mem.New(testTable(t)), 0).Memo()
		boom := errors.New("boom")
		release := make(chan struct{})
		first := lead(m, "k", release, nil, boom)
		out := make(chan outcome, 1)
		go func() {
			v, err := m.Do(ctx, Tests, "k", func() (any, error) { return "retried", nil })
			out <- outcome{v, err}
		}()
		stillWaiting(t, out)
		close(release)
		if o := <-first; o.err != boom {
			t.Fatalf("leader got (%v, %v), want its own error", o.v, o.err)
		}
		if o := <-out; o.v != "retried" || o.err != nil {
			t.Fatalf("waiter got (%v, %v), want its own computed value", o.v, o.err)
		}
		if v, ok := m.Load(Tests, "k"); !ok || v != "retried" {
			t.Errorf("kept %v, %t; want the waiter's value", v, ok)
		}
	})

	t.Run("panicking leader", func(t *testing.T) {
		m := NewMemo()
		started, release := make(chan struct{}), make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer func() { panicked <- recover() }()
			_, _ = m.Do(ctx, Discoveries, "k", func() (any, error) {
				close(started)
				<-release
				panic("boom")
			})
		}()
		<-started
		const waiters = 3
		var computes atomic.Int64
		out := make(chan outcome, waiters)
		for range waiters {
			go func() {
				v, err := m.Do(ctx, Discoveries, "k", func() (any, error) {
					computes.Add(1)
					return "retried", nil
				})
				out <- outcome{v, err}
			}()
		}
		stillWaiting(t, out)
		close(release)
		if r := <-panicked; r != "boom" {
			t.Fatalf("the computing caller recovered %v, want its own panic", r)
		}
		for range waiters {
			select {
			case o := <-out:
				if o.v != "retried" || o.err != nil {
					t.Errorf("waiter got (%v, %v), want a waiter's computed value", o.v, o.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a waiter was never released after its leader panicked")
			}
		}
		if n := computes.Load(); n != 1 {
			t.Errorf("waiters computed the key %d times, want once", n)
		}
		if v, ok := m.Load(Discoveries, "k"); !ok || v != "retried" {
			t.Errorf("kept %v, %t; want the waiter's value", v, ok)
		}
		if got := memoLen(m); got != 1 {
			t.Errorf("memo holds %d results, want the waiter's one", got)
		}
	})

	t.Run("cancelled waiter", func(t *testing.T) {
		m := Wrap(mem.New(testTable(t)), 0).Memo()
		release := make(chan struct{})
		first := lead(m, "k", release, "leader", nil)
		cctx, cancel := context.WithCancel(ctx)
		out := make(chan outcome, 1)
		go func() {
			v, err := m.Do(cctx, Tests, "k", func() (any, error) { return "waiter", nil })
			out <- outcome{v, err}
		}()
		stillWaiting(t, out)
		cancel()
		select {
		case o := <-out:
			if !errors.Is(o.err, context.Canceled) {
				t.Errorf("cancelled waiter got (%v, %v), want context.Canceled", o.v, o.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a cancelled waiter kept waiting for the leader")
		}
		close(release)
		if o := <-first; o.v != "leader" || o.err != nil {
			t.Fatalf("leader got (%v, %v)", o.v, o.err)
		}
	})

	t.Run("bounds", func(t *testing.T) {
		c := Wrap(mem.New(testTable(t)), 0)
		memos := []*Memo{c.Memo()}
		for v := 0; v < 4; v++ {
			child, err := c.Restrict(ctx, dataset.Eq{Attr: "B", Value: strconv.Itoa(v)})
			if err != nil {
				t.Fatal(err)
			}
			memos = append(memos, child.(*Relation).Memo())
		}
		total := 0
		for i, m := range memos {
			for j := 0; j < maxMemoEntries+50; j++ {
				if _, err := m.Do(ctx, Tests, strconv.Itoa(j), func() (any, error) { return j, nil }); err != nil {
					t.Fatal(err)
				}
			}
			n := memoLen(m)
			if i == 0 && n != maxMemoEntries {
				t.Errorf("root memo holds %d results, want the cap %d", n, maxMemoEntries)
			}
			if n > maxMemoEntries {
				t.Errorf("view %d holds %d results, over the cap %d", i, n, maxMemoEntries)
			}
			total += n
		}
		if st := c.Stats(); st.MemoEntries != total || total > maxMemoEntries*maxTreeMemoFactor {
			t.Errorf("tree holds %d results (ledger %d), want ≤ %d and the ledger exact",
				total, st.MemoEntries, maxMemoEntries*maxTreeMemoFactor)
		}

		// A memo of no view is bounded alone and counts its own lookups.
		m := NewMemo()
		const extra = 50
		for j := 0; j < maxMemoEntries+extra; j++ {
			if _, err := m.Do(ctx, Discoveries, strconv.Itoa(j), func() (any, error) { return j, nil }); err != nil {
				t.Fatal(err)
			}
		}
		if n := memoLen(m); n != maxMemoEntries {
			t.Errorf("memo of no view holds %d results, want the cap %d", n, maxMemoEntries)
		}
		if hits, misses := m.Tally(Discoveries); hits != 0 || misses != maxMemoEntries+extra {
			t.Errorf("memo of no view tallied %d hits, %d misses; want 0, %d", hits, misses, maxMemoEntries+extra)
		}
		if hits, misses := m.Tally(Tests); hits+misses != 0 || c.Stats().MemoEntries != total {
			t.Error("a memo of no view shared a tally or a ledger with a view tree")
		}
	})
}
