// Package b uses package a.
package b

import "planted/internal/a"

// F calls a's live exports.
func F() {
	a.Used()
	a.T{}.Live()
}
