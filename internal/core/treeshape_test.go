package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// treeShapes renders, one line per tree, the parent and the ordered child
// list of every participant of every scheme's tree over a spread of
// participant sets (duplicates included), roots, (seed, opKey) pairs and
// node sizes. A participant prints as rank<parent>child,child (parent -1 at
// the root).
func treeShapes() string {
	var b strings.Builder
	b.WriteString("# scheme cpn seed op root n | rank<parent>children per participant\n")
	pairs := [][2]uint64{{1, 1}, {7, 99}, {12345, OpKey(OpColBcast, 17, 42)}}
	for _, scheme := range AllSchemes() {
		for _, cpn := range []int{4, 24} {
			topo := Topology{CoresPerNode: cpn}
			for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 24, 25, 33, 64} {
				ranks := shapeRanks(n)
				parts := NewTree(FlatTree, ranks[0], ranks, 1, 1).Participants()
				for _, root := range []int{parts[0], parts[len(parts)/2], parts[len(parts)-1]} {
					for _, so := range pairs {
						tr := NewTreeTopo(scheme, root, ranks, so[0], so[1], topo)
						fmt.Fprintf(&b, "%s %d %d %d %d %d |", scheme.Slug(), cpn, so[0], so[1], root, tr.Size())
						for _, r := range tr.Participants() {
							fmt.Fprintf(&b, " %d<%d>", r, tr.Parent(r))
							for i, c := range tr.Children(r) {
								if i > 0 {
									b.WriteByte(',')
								}
								fmt.Fprint(&b, c)
							}
						}
						b.WriteByte('\n')
					}
				}
			}
		}
	}
	return b.String()
}

// shapeRanks returns a deterministic participant list with n distinct ranks,
// spread over several nodes of either size, unsorted and with every third
// rank listed twice (a rank owning several blocks of one collective).
func shapeRanks(n int) []int {
	ranks := make([]int, 0, n+n/3)
	for i := 0; i < n; i++ {
		r := (i*37 + n) % (3 * n) // distinct: 37 is coprime to 3n for these n
		ranks = append(ranks, r)
		if i%3 == 2 {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// TestTreeShapesGolden pins every scheme's trees, participant by
// participant, so a change to how trees are built or stored cannot move a
// parent or reorder a child list. -update rewrites the golden.
func TestTreeShapesGolden(t *testing.T) {
	got := treeShapes()
	path := filepath.Join("testdata", "tree-shapes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d drifted from %s:\n got: %s\nwant: %s", i+1, path, gotLines[i], wantLines[i])
		}
	}
}
