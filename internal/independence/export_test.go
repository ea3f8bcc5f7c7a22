package independence

import "context"

// ConditionalMI exposes conditionalMI to the tests, including the external
// ones in derive_test.go, which build fixtures through datagen and so cannot
// sit in package independence.
var ConditionalMI = conditionalMI

// JointEntropy returns the estimated H(attrs) in nats.
func (p *Provider) JointEntropy(ctx context.Context, attrs []string) (float64, error) {
	s, err := p.stat(ctx, attrs, true)
	return s.h, err
}

// DistinctCount exposes distinctCount to the tests.
func (p *Provider) DistinctCount(ctx context.Context, attrs []string) (int, error) {
	return p.distinctCount(ctx, attrs)
}
