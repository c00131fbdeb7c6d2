package codec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// No live section id reuses a retired one of its kind, and no two live ids
// of a kind collide, so a file an older version wrote can never be read as
// holding a section it does not. The live ids are every Sec constant of
// sections.go — SecFlat ones the flat image's (the dataset file takes three
// of them), the others the checkpoint's — but for one whose comment names it
// retired.
func TestNoLiveSectionReusesARetiredID(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "sections.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	live := map[bool]map[uint64]string{false: {}, true: {}} // by flat
	found := 0
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			name := vs.Names[0].Name
			lit, ok := vs.Values[0].(*ast.BasicLit)
			if !strings.HasPrefix(name, "Sec") || !ok {
				continue
			}
			if vs.Comment != nil && strings.HasPrefix(vs.Comment.Text(), "retired") {
				continue
			}
			id, err := strconv.ParseUint(lit.Value, 10, 32)
			if err != nil {
				t.Fatal(err)
			}
			found++
			flat := strings.HasPrefix(name, "SecFlat")
			if other, dup := live[flat][id]; dup {
				t.Errorf("%s and %s share id %d", name, other, id)
			}
			live[flat][id] = name
			retired := retiredSnapshotIDs
			if flat {
				retired = retiredFlatIDs
			}
			if slices.Contains(retired, uint32(id)) {
				t.Errorf("%s reuses retired id %d", name, id)
			}
		}
	}
	if found < 30 {
		t.Fatalf("found %d live section ids in sections.go; the parse missed some", found)
	}
	for _, id := range []uint64{SecFlatPoints, SecFlatDocStart, SecFlatDocWords} {
		if _, ok := live[true][id]; !ok {
			t.Errorf("dataset section %d is not a live flat section", id)
		}
	}
	// Version 5's coordinates by rank (29) live on as the rows in 30-32.
	if name, ok := live[true][29]; ok || !slices.Contains(retiredFlatIDs, 29) {
		t.Errorf("flat section 29 is live (%s) or not retired", name)
	}
}
