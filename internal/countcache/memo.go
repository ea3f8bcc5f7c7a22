package countcache

import (
	"context"
	"errors"
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
// Results are read through Do, which computes each key once however many
// callers want it at the same time. They are bounded per view by a
// constant and charged to the tree's ledger; past either bound arbitrary
// entries are evicted (the memo is a pure cache). Safe for concurrent use.
type Memo struct {
	tally *memoTally

	mu sync.Mutex
	// account is the tree ledger entries are charged to; nil once the view
	// has been dropped from its tree, after which in-flight readers keep a
	// memo bounded per view only.
	account *cellAccount
	entries map[memoKey]any
	shared  map[string]any
	flights map[memoKey]*flight
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
// a miss for f. It does not wait for a computation in flight; Do does.
func (m *Memo) Load(f Family, key string) (any, bool) {
	m.mu.Lock()
	v, ok := m.entries[memoKey{f, key}]
	m.mu.Unlock()
	m.count(f, ok)
	return v, ok
}

// Do returns the result of family f under key, computing and keeping it on
// a miss. It is single-flight: while one caller computes a key, concurrent
// callers of the same key wait for its result instead of computing it
// again. A failed computation is not kept and its error goes to the caller
// that ran it only; each waiter then retries, and one of them computes. A
// waiter whose ctx ends first returns ctx.Err(). A call that computes
// counts a miss for f; a call answered by a kept or in-flight result counts
// a hit. Kept results are bounded per view and charged to the tree's
// ledger.
func (m *Memo) Do(ctx context.Context, f Family, key string, compute func() (any, error)) (any, error) {
	k := memoKey{f, key}
	for {
		m.mu.Lock()
		if v, ok := m.getLocked(k); ok {
			m.mu.Unlock()
			m.count(f, true)
			return v, nil
		}
		if fl, ok := m.flights[k]; ok {
			if fl.done == nil {
				fl.done = make(chan struct{})
			}
			done := fl.done
			m.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err == nil {
				m.count(f, true)
				return fl.v, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue // the computing caller failed: retry
		}
		fl := &flight{err: errComputePanicked}
		if m.flights == nil {
			m.flights = make(map[memoKey]*flight)
		}
		m.flights[k] = fl
		m.mu.Unlock()
		m.count(f, false)
		m.run(k, fl, compute)
		return fl.v, fl.err
	}
}

// Shared returns the long-lived object kept under key, building it on
// first use through Do's single flight, so concurrent first uses build it
// once. It is meant for a small fixed set of keys (one entropy provider per
// estimator), which are not bounded, charged or counted. Build errors are
// not kept.
func (m *Memo) Shared(ctx context.Context, key string, build func() (any, error)) (any, error) {
	return m.Do(ctx, sharedFamily, key, build)
}

// sharedFamily keys Shared's objects, which live apart from the counted
// families.
const sharedFamily = numFamilies

// flight is one computation in progress; waiters block on done, then read
// v and err.
type flight struct {
	// done is made by the first waiter, under Memo.mu: most computations
	// have none.
	done chan struct{}
	v    any
	err  error
}

// errComputePanicked is what waiters see when the computing caller
// panicked: they retry, like after any failure.
var errComputePanicked = errors.New("countcache: memo computation panicked")

// run computes fl's result, keeps it on success and releases the waiters,
// also when compute panics.
func (m *Memo) run(k memoKey, fl *flight, compute func() (any, error)) {
	defer func() {
		m.mu.Lock()
		delete(m.flights, k)
		if fl.err == nil {
			m.putLocked(k, fl.v)
		}
		done := fl.done
		m.mu.Unlock()
		if done != nil {
			close(done)
		}
	}()
	fl.v, fl.err = compute()
}

// count tallies one lookup of family f; Shared's lookups are not counted.
func (m *Memo) count(f Family, hit bool) {
	switch {
	case f >= numFamilies:
	case hit:
		m.tally.hits[f].Add(1)
	default:
		m.tally.misses[f].Add(1)
	}
}

// getLocked returns the object kept under k. Callers hold m.mu.
func (m *Memo) getLocked(k memoKey) (any, bool) {
	if k.family == sharedFamily {
		v, ok := m.shared[k.key]
		return v, ok
	}
	v, ok := m.entries[k]
	return v, ok
}

// putLocked keeps v under k: a shared object unbounded, a result through
// storeLocked. Callers hold m.mu.
func (m *Memo) putLocked(k memoKey, v any) {
	if k.family != sharedFamily {
		m.storeLocked(k, v)
		return
	}
	if m.shared == nil {
		m.shared = make(map[string]any)
	}
	m.shared[k.key] = v
}

// storeLocked keeps v under k, evicting arbitrary entries past the view or
// tree bound. When the tree is full and this view holds nothing to evict,
// v is not kept. Callers hold m.mu.
func (m *Memo) storeLocked(k memoKey, v any) {
	if _, ok := m.entries[k]; !ok {
		for len(m.entries) >= maxMemoEntries || !m.chargeOneLocked() {
			if !m.evictOneLocked() {
				return
			}
		}
	}
	m.entries[k] = v
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
