package hypdb

import "hypdb/internal/core"

// WithPlanner enables or disables the lattice-aware batch planner (default
// on). The planner changes no count or report, so tests use the unplanned
// path as the reference the planned one must reproduce.
func WithPlanner(on bool) Option { return func(s *settings) { s.noPlanner = !on } }

// WithCoreOptions replaces the call's whole core.Options block, reaching
// the settings no public option sets: the entropy cache switch and the
// Discover hook.
func WithCoreOptions(o core.Options) Option { return func(s *settings) { s.opts = o } }
