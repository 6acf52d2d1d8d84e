package world

// CheckFrame exports checkFrame to the external tests that build real
// games (games imports world).
var CheckFrame = checkFrame
