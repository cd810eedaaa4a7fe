package store

import (
	"sync"

	"repro/internal/index"
	"repro/internal/synopsis"
	"repro/internal/xmltree"
)

// Build boots a corpus on the heap from its columns, the counterpart of
// OpenSnapshot: the node slab, the postings and the synopsis each derive
// from the columns alone, so they are built in lanes of their own — the
// slab on the calling goroutine, unless doc already is the slab the
// columns describe (a document built some other way, whose columns
// Document.Columns derived, and whose own values the keys then point
// at). The columns are only read.
func Build(c *xmltree.Columns, doc *xmltree.Document) (*index.Index, *synopsis.Synopsis) {
	var (
		wg       sync.WaitGroup
		postings index.Columns
		syn      *synopsis.Synopsis
		given    = doc
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		postings = index.Postings(c)
		if given != nil {
			postings.KeysOn(given)
		}
	}()
	go func() {
		defer wg.Done()
		syn = synopsis.FromColumns(c)
	}()
	if doc == nil {
		doc = c.Build()
	}
	wg.Wait()
	return index.New(doc, postings), syn
}
