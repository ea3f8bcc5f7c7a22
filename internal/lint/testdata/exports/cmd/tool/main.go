// Command tool uses packages a and b from outside internal/.
package main

import (
	alias "planted/internal/a"
	"planted/internal/b"
)

func main() {
	alias.ByCommand()
	b.F()
}
