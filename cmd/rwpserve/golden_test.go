package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenArgs is the selftest geometry every golden document shares.
var goldenArgs = []string{"-selftest", "20000", "-sets", "256", "-ways", "8"}

// TestGoldenStatsDocuments pins the -selftest stats documents across
// commits. The cmp smokes in scripts/check.sh compare runs of one
// build; these files were written by an earlier build, so a change
// that alters any byte of the document — a field, a count, a cost
// bucket, the probe section — fails here even when it is consistent
// within the new build. The -coalesce run shares mcf.json: coalescing
// never changes a single-goroutine run. Regenerate a file only for a
// deliberate change to the document:
//
//	go run ./cmd/rwpserve -selftest 20000 -sets 256 -ways 8 <extra> \
//	    > cmd/rwpserve/testdata/golden/<golden>.json
func TestGoldenStatsDocuments(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		extra        []string
	}{
		{"mcf", "mcf", []string{"-profile", "mcf"}},
		{"mcf-coalesce", "mcf", []string{"-profile", "mcf", "-coalesce"}},
		{"mcf-lru", "mcf-lru", []string{"-profile", "mcf", "-policy", "lru"}},
		{"mcf-interval16", "mcf-interval16", []string{"-profile", "mcf", "-interval", "16"}},
		{"advscan-neg64", "advscan-neg64", []string{"-profile", "adv:scan", "-neg-ops", "64"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden+".json"))
			if err != nil {
				t.Fatal(err)
			}
			args := append(append([]string(nil), goldenArgs...), tc.extra...)
			var out, errb bytes.Buffer
			if code := run(context.Background(), args, &out, &errb); code != 0 {
				t.Fatalf("run(%s) = %d, stderr: %s", strings.Join(args, " "), code, errb.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("rwpserve %s: stats document differs from testdata/golden/%s.json:\n%s",
					strings.Join(args, " "), tc.golden, out.String())
			}
		})
	}
}
