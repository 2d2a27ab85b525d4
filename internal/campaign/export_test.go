package campaign

// CellForkable exposes cellForkable to the external tests.
var CellForkable = cellForkable
