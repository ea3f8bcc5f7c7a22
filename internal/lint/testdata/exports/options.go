// Package planted is the root package whose options the planted-violation
// test classifies.
package planted

// Option configures a call.
type Option func(*int)

// WithUsed is set by a command: not flagged.
func WithUsed() Option { return nil }

// WithTestOnly is set only by package b's test: flagged.
func WithTestOnly() Option { return nil }

// WithRootOnly is set only by the root package itself: flagged.
func WithRootOnly() Option { return nil }

// Unrelated returns no Option and is not checked.
func Unrelated() int { return 0 }

var defaults = []Option{WithRootOnly()}
