package store

import (
	"sync"

	"repro/internal/index"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// Build boots a corpus on the heap from its columns, the counterpart of
// OpenSnapshot: the postings and the synopsis each derive from the
// columns alone, so they are built in lanes of their own, the postings
// on the calling goroutine. doc is the node slab the columns describe
// when the caller has one (the document FromDocument was handed), or
// nil: no slab is built here. The columns are only read.
func Build(c *xmltree.Columns, doc *xmltree.Document) (*index.Index, *synopsis.Synopsis) {
	var (
		wg  sync.WaitGroup
		syn *synopsis.Synopsis
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		syn = synopsis.FromColumns(c)
	}()
	postings := index.Postings(c)
	wg.Wait()
	return index.New(c, postings, doc), syn
}
