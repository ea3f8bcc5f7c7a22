// Package a declares the exports the planted-violation test classifies.
package a

// Unused is referenced from nowhere: flagged.
func Unused() {}

// OwnTestOnly is called only by a's own test: flagged.
func OwnTestOnly() {}

// Used is called by package b's non-test code.
func Used() {}

// TestOnly is called only by package b's test, as a shared fixture.
func TestOnly() {}

// ByCommand is called by a command outside internal/.
func ByCommand() {}

// T is an exported type with one live and one dead method.
type T struct{}

// Live is selected by package b.
func (T) Live() {}

// Dead is selected nowhere: flagged.
func (T) Dead() {}

// hidden's exported method satisfies an interface and is skipped.
type hidden struct{}

// Method is selected nowhere, but hidden is unexported.
func (hidden) Method() {}

func internalUse() {
	var _ interface{ Method() } = hidden{}
}
