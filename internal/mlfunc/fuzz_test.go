package mlfunc

import "testing"

// FuzzParse feeds arbitrary source to Parse, the parser and type checker a
// MATLAB Function block's script reaches from an untrusted .slx file
// (blocks.Resolve during codegen.Compile). Any script must come back as a
// function or an error, never a panic. The committed corpus holds short
// scripts: an if/elseif chain, a bounded while, a for loop, and typed
// declarations of every class.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if fn, err := Parse("fuzz", src); fn == nil && err == nil {
			t.Fatal("Parse returned neither a function nor an error")
		}
	})
}
