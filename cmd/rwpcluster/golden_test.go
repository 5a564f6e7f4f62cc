package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenMergedDocument pins the merged -selftest stats document
// across commits, like rwpserve's golden test (whose mcf.json holds the
// same bytes: the merged cluster document equals the single-node one).
// Regenerate only for a deliberate change to the document:
//
//	go run ./cmd/rwpcluster -selftest 20000 -sets 256 -ways 8 -profile mcf \
//	    > cmd/rwpcluster/testdata/golden/mcf.json
func TestGoldenMergedDocument(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "mcf.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := clusterOut(t, "-selftest", "20000", "-sets", "256", "-ways", "8", "-profile", "mcf")
	if got != string(want) {
		t.Errorf("merged stats document differs from testdata/golden/mcf.json:\n%s", got)
	}
}
