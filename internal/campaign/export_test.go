package campaign

// CellCollapsible exposes cellCollapsible to the external tests.
var CellCollapsible = cellCollapsible
