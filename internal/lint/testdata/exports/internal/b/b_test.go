package b

import (
	"testing"

	"planted/internal/a"
)

func TestF(t *testing.T) {
	a.TestOnly()
	F()
}
