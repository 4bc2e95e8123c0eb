package lib

import "testing"

// The loader never reads test files: this call does not reach onlyTests.
func TestOnlyTests(t *testing.T) {
	if onlyTests() != 1 {
		t.Fatal("onlyTests")
	}
}
