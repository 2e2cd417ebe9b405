package frames

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFrameCodecImportSeam enforces the layering the wire split
// established: the raw frame codec has exactly two audiences — the
// protocol endpoints under internal/wire/... and the protocol
// intermediary in internal/shard/. Everything else (commands, the
// public sip package, examples, benchmarks) speaks through wire.Client
// and wire.Server, so the codec can change without a flag day across
// the repo.
func TestFrameCodecImportSeam(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	const codec = "repro/internal/wire/frames"
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel := filepath.ToSlash(rel); strings.HasPrefix(rel, "internal/wire/") || strings.HasPrefix(rel, "internal/shard/") {
			return nil // the codec's two audiences
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == codec || strings.HasPrefix(p, codec+"/") {
				t.Errorf("%s imports %s: the frame codec is internal to internal/wire/... and internal/shard/ — use wire.Client / wire.Server", rel, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
