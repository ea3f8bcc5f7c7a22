package planted

// WithTestHook is declared in a test file: not flagged.
func WithTestHook() Option { return nil }
