package b

import (
	"testing"

	"planted"
	"planted/internal/a"
)

func TestF(t *testing.T) {
	a.TestOnly()
	_ = planted.WithTestOnly()
	F()
}
