package countcache

import (
	"sync"
	"sync/atomic"
)

// maxMemoEntries bounds the results one view's memo keeps. A cold audit of
// a 10-attribute relation stores under a thousand independence tests and
// an analysis of a 101-attribute Fig 1 slice under seven hundred, plus one
// key-entropy entry per attribute the key detector sampled, so the
// bound bites only on long-lived session roots, where an evicted result
// costs one re-run.
const maxMemoEntries = 4096

// maxTreeMemoFactor bounds the memo entries of one cache tree (a handle or
// a pin, and every restricted view below it) as a multiple of the per-view
// bound, so a predicate-heavy analysis spawning many restricted views
// cannot multiply the footprint.
const maxTreeMemoFactor = 4

// Memo is one view's store of results computed from its counts: the
// engine keeps the independence tests it ran on the view there, the key
// detector's per-attribute subsample entropies, and the entropy providers
// those tests share. Such a result is a pure function of the view's data,
// so it is valid exactly as long as the view's cells are. The memo
// therefore lives on the view object, is dropped with the view's cells,
// and views whose data can move under them (a versioned or appendable
// root) have none.
//
// Load/Store entries are bounded per view by a constant and charged to the
// tree's ledger; past either bound arbitrary entries are evicted (the memo
// is a pure cache). Safe for concurrent use.
type Memo struct {
	tally *memoTally

	mu sync.Mutex
	// account is the tree ledger entries are charged to; nil once the view
	// has been dropped from its tree, after which in-flight readers keep a
	// memo bounded per view only.
	account *cellAccount
	entries map[memoKey]any
	shared  map[string]any
}

// Family names one kind of result a memo keeps. The families share the
// memo's bounds and ledger, never each other's keys, and count their
// lookups apart, so each Stats counter means one thing.
type Family uint8

const (
	// Tests are independence-test results (Stats.MemoHits/MemoMisses).
	Tests Family = iota
	// KeyEntropies are the key detector's subsample entropies of one
	// attribute (Stats.KeyHits/KeyMisses).
	KeyEntropies
	numFamilies
)

type memoKey struct {
	family Family
	key    string
}

// memoTally counts memo lookups per family across one handle's whole view
// tree — the handle, its pins and their restricted views — for the root's
// Stats.
type memoTally struct {
	hits, misses [numFamilies]atomic.Int64
}

func newMemo(acct *cellAccount, tally *memoTally) *Memo {
	return &Memo{tally: tally, account: acct, entries: make(map[memoKey]any)}
}

// Load returns the result of family f stored under key, counting a hit or
// a miss for f.
func (m *Memo) Load(f Family, key string) (any, bool) {
	m.mu.Lock()
	v, ok := m.entries[memoKey{f, key}]
	m.mu.Unlock()
	if ok {
		m.tally.hits[f].Add(1)
	} else {
		m.tally.misses[f].Add(1)
	}
	return v, ok
}

// Store keeps v as the result of family f under key, evicting arbitrary
// entries past the view or tree bound. When the tree is full and this view
// holds nothing to evict, v is not kept.
func (m *Memo) Store(f Family, key string, v any) {
	k := memoKey{f, key}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; !ok {
		for len(m.entries) >= maxMemoEntries || !m.chargeOneLocked() {
			if !m.evictOneLocked() {
				return
			}
		}
	}
	m.entries[k] = v
}

// Shared returns the long-lived object kept under key, building it on
// first use; concurrent first uses may both build, and the first stored
// wins. It is meant for a small fixed set of keys (one entropy provider
// per estimator), which are not bounded or charged. Build errors are not
// kept.
func (m *Memo) Shared(key string, build func() (any, error)) (any, error) {
	m.mu.Lock()
	v, ok := m.shared[key]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.shared[key]; ok {
		return prev, nil
	}
	if m.shared == nil {
		m.shared = make(map[string]any)
	}
	m.shared[key] = v
	return v, nil
}

// drop empties the memo, returns its entries to the tree ledger and
// detaches it from the tree: the view has left its parent, but in-flight
// readers may still use it.
func (m *Memo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.account != nil {
		m.account.addMemo(-len(m.entries))
	}
	m.account = nil
	m.entries = make(map[memoKey]any)
	m.shared = nil
}

// chargeOneLocked charges one entry to the tree ledger, reporting whether
// it fits. Detached memos always fit. Callers hold m.mu.
func (m *Memo) chargeOneLocked() bool {
	return m.account == nil || m.account.addMemo(1)
}

// evictOneLocked deletes an arbitrary entry, reporting false when there is
// none. Callers hold m.mu.
func (m *Memo) evictOneLocked() bool {
	for k := range m.entries {
		delete(m.entries, k)
		if m.account != nil {
			m.account.addMemo(-1)
		}
		return true
	}
	return false
}
