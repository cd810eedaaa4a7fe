package analysis

import (
	"encoding/json"
	"go/types"
	"strings"
)

// A fact is what an analyzer learns about a package-level function while
// analyzing the function's package — hotalloc's "this function
// allocates" — and hands to the packages importing it: go vet writes
// each unit's facts to a .vetx file and passes the files of a unit's
// dependencies (the standard library's included) to the unit, so the
// suite sees across package boundaries. A fact is any JSON-serializable
// value, keyed by analyzer and objectKey.
type factStore map[string]json.RawMessage

func factKey(analyzer string, obj types.Object) string {
	if k := objectKey(obj); k != "" {
		return analyzer + " " + k
	}
	return ""
}

// objectKey returns the canonical cross-package key of a package-level
// object: the defining package's import path (test-variant brackets
// stripped, so a fact exported while analyzing "p [p.test]" is visible
// to importers of "p") joined with the receiver-qualified name. Objects
// without a package, and methods on unnamed receivers, get "".
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := strippedPath(obj.Pkg().Path())
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := derefNamed(recv.Type())
			if named == nil {
				return ""
			}
			return path + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return path + "." + obj.Name()
}

// strippedPath removes go's test-variant suffix:
// "repro/internal/core [repro/internal/core.test]" -> "repro/internal/core".
func strippedPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// derefNamed returns t, or the type t points to, as a named type; nil
// when it is neither.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ExportObjectFact records fact about obj for the passes over packages
// importing it.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	if k := factKey(p.Analyzer.Name, obj); k != "" {
		if data, err := json.Marshal(fact); err == nil {
			p.facts[k] = data
		}
	}
}

// ImportObjectFact decodes p's analyzer's fact about obj into out,
// reporting whether there was one.
func (p *Pass) ImportObjectFact(obj types.Object, out any) bool {
	data, ok := p.facts[factKey(p.Analyzer.Name, obj)]
	return ok && json.Unmarshal(data, out) == nil
}

// encode serializes the facts about pkgPath's own objects.
func (s factStore) encode(pkgPath string) ([]byte, error) {
	prefix := " " + strippedPath(pkgPath) + "."
	own := make(map[string]json.RawMessage)
	for k, v := range s {
		if strings.Contains(k, prefix) {
			own[k] = v
		}
	}
	return json.Marshal(own) // encoding/json sorts map keys
}

// decode merges facts written by encode.
func (s factStore) decode(data []byte) error {
	var in map[string]json.RawMessage
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	for k, v := range in {
		s[k] = v
	}
	return nil
}
