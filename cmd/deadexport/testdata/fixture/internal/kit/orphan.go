package kit

// Orphan has no caller outside tests.
func Orphan() {}
