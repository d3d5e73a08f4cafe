//go:build !tdmdinvariant

package invariant

// Enabled reports whether assertions run. Without the tdmdinvariant
// build tag it is false; it stays a variable so tests can flip it to
// exercise both sides of an assertion.
var Enabled bool
