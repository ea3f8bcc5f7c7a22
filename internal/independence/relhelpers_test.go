package independence

import (
	"context"
	"testing"

	"hypdb/internal/stats"
	"hypdb/source"
)

// cachedProv builds a Provider with the entropy cache on over rel, failing
// the test on error.
func cachedProv(tb testing.TB, rel source.Relation, est stats.Estimator) *Provider {
	tb.Helper()
	p, err := NewProvider(context.Background(), rel, est, true)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}
