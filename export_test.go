package hypdb

import "hypdb/internal/core"

// WithPlanner enables or disables AnalyzeAll's batch prime (default on).
// The prime changes no count or report, so tests use the unprimed path as
// the reference the primed one must reproduce.
func WithPlanner(on bool) Option { return func(s *settings) { s.noPlanner = !on } }

// WithCoreOptions replaces the call's whole core.Options block, reaching
// the settings no public option sets: the entropy cache switch and the
// Discover hook.
func WithCoreOptions(o core.Options) Option { return func(s *settings) { s.opts = o } }
