// Package kittest is a test kit: its exports serve tests only, and the gate
// does not report them.
package kittest

// Run has no non-test caller.
func Run() {}
