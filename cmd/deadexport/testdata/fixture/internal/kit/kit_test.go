package kit

import "testing"

func TestUsedMatchesReference(t *testing.T) {
	Orphan()
	if Used() != Reference() {
		t.Fatal("Used disagrees with its reference")
	}
}
