package independence

import (
	"context"
	"testing"

	"hypdb/internal/countcache"
	"hypdb/internal/stats"
	"hypdb/source"
)

// cachedProv builds a Provider with the entropy cache on over rel, in a
// memo of its own, failing the test on error.
func cachedProv(tb testing.TB, rel source.Relation, est stats.Estimator) *Provider {
	tb.Helper()
	p, err := NewProvider(context.Background(), rel, est, countcache.NewMemo())
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// entropyTally returns the entropy lookups counted by p's memo.
func entropyTally(p *Provider) (hits, misses int) {
	return p.memo.Tally(countcache.Entropies)
}
