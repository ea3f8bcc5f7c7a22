package countcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// maxMemoEntries bounds the results one view's memo keeps. A cold analysis
// of a 101-attribute Fig 1 slice stores under seven hundred independence
// tests, one key-entropy entry per attribute the key detector sampled,
// about 1,400 χ² entropies and a few dozen discovery searches; an audit of
// a 10-attribute relation spreads fewer over its restricted views. So the
// bound bites only on long-lived session roots, where an evicted result
// costs one re-run.
const maxMemoEntries = 4096

// maxTreeMemoFactor bounds the memo entries of one cache tree (a handle or
// a pin, and every restricted view below it) as a multiple of the per-view
// bound, so a predicate-heavy analysis spawning many restricted views
// cannot multiply the footprint.
const maxTreeMemoFactor = 4

// Memo is one view's store of results computed from its counts: the
// engine keeps the independence tests it ran on the view there, the whole
// covariate-discovery searches those tests served (a Grow-Shrink ordering,
// grow/shrink pass or Alg 1 phase search, with the number of tests it
// requested), the key detector's per-attribute subsample entropies, and
// the entropies and distinct counts of the attribute sets its χ² tests
// read. Such a result is a pure function of the view's data, so it is
// valid exactly as long as the view's cells are. The memo therefore lives
// on the view object, is dropped with the view's cells, and views whose
// data can move under them (a versioned or appendable root) have none.
// NewMemo makes a memo that belongs to no view, for results whose keys
// name their own inputs or whose one owner reads one relation (an entropy
// provider over a view without a memo).
//
// Results are read through Do, which computes each key once however many
// callers want it at the same time, or through Load and Store, which leave
// a caller that misses to compute on its own. They are bounded per memo by
// a constant and, on a view, charged to the tree's ledger; past either
// bound arbitrary entries are evicted (the memo is a pure cache). Safe for
// concurrent use.
type Memo struct {
	tally *memoTally

	mu sync.Mutex
	// account is the tree ledger entries are charged to; nil for a memo of
	// no view, and once the view has been dropped from its tree, after
	// which in-flight readers keep a memo bounded per view only.
	account *cellAccount
	entries map[memoKey]any
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
	// Entropies are the joint entropy and distinct count of one attribute
	// set under one estimator, read by χ² tests (read through Tally).
	Entropies
	// Discoveries are covariate-discovery results, kept in memos of no
	// view (read through Tally).
	Discoveries
	// Searches are the searches one covariate discovery runs on a view —
	// orderings, grow/shrink passes and phase searches — each kept with the
	// tests it requested once it has completed (read through Tally).
	Searches
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

// NewMemo returns a memo that belongs to no view: it is bounded by the
// per-view bound, charged to no ledger and counts its lookups in a tally
// of its own.
func NewMemo() *Memo { return newMemo(nil, &memoTally{}) }

// Tally returns the lookups of family f counted in the memo's tally: a
// view's memo shares one tally with its whole tree, a NewMemo memo has its
// own. A lookup answered by a kept or in-flight result is a hit, one that
// computes is a miss.
func (m *Memo) Tally(f Family) (hits, misses int) {
	return int(m.tally.hits[f].Load()), int(m.tally.misses[f].Load())
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

// Store keeps v under key for family f, as Do keeps a result it computed;
// it counts no lookup. With Load it serves results only once they are
// complete: callers that miss a key in flight each compute it.
func (m *Memo) Store(f Family, key string, v any) {
	m.mu.Lock()
	m.storeLocked(memoKey{f, key}, v)
	m.mu.Unlock()
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
		if v, ok := m.entries[k]; ok {
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

// DoBytes is Do with the key in a byte slice, which a hit does not copy.
func (m *Memo) DoBytes(ctx context.Context, f Family, key []byte, compute func() (any, error)) (any, error) {
	m.mu.Lock()
	v, ok := m.entries[memoKey{f, string(key)}]
	m.mu.Unlock()
	if ok {
		m.count(f, true)
		return v, nil
	}
	return m.Do(ctx, f, string(key), compute)
}

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
			m.storeLocked(k, fl.v)
		}
		done := fl.done
		m.mu.Unlock()
		if done != nil {
			close(done)
		}
	}()
	fl.v, fl.err = compute()
}

// count tallies one lookup of family f.
func (m *Memo) count(f Family, hit bool) {
	if hit {
		m.tally.hits[f].Add(1)
	} else {
		m.tally.misses[f].Add(1)
	}
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
