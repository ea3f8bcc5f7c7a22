// Command tool uses packages a and b from outside internal/, and sets a
// root option.
package main

import (
	"planted"
	alias "planted/internal/a"
	"planted/internal/b"
)

func main() {
	alias.ByCommand()
	b.F()
	_ = planted.WithUsed()
}
