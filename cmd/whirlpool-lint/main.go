// Command whirlpool-lint is the Whirlpool analyzer suite
// (internal/analysis) as a vet tool; the go command is its only driver:
//
//	go build -o bin/whirlpool-lint ./cmd/whirlpool-lint
//	go vet -vettool=bin/whirlpool-lint ./...
//
// go vet runs it once per package, test variants included. Deliberate
// exceptions are annotated in source; see the Static analysis section
// of DESIGN.md.
package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		// The go command keys its vet cache on this line, so it must
		// change whenever the tool does: hash the executable.
		id := "unknown"
		if exe, err := os.Executable(); err == nil {
			if data, err := os.ReadFile(exe); err == nil {
				id = fmt.Sprintf("%x", sha256.Sum256(data))[:16]
			}
		}
		fmt.Printf("whirlpool-lint version devel buildID=%s\n", id)
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]") // no analyzer flags
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(analysis.RunVetTool(args[0], analysis.All()))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which whirlpool-lint) [packages]")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}
}
