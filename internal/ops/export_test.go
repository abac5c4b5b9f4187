package ops

// Exported for the external tests.
const NumCodes = numCodes

var WidthMask = widthMask
