package vircoe

// MatchReference lets the external tests, which compile Table-II kernels
// through package chopper (an import cycle from package vircoe), hold
// EmitTo to the reference scan.
var MatchReference = matchReference
