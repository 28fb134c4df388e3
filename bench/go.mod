// The benchmark is a module of its own so that it builds from bench/ alone
// on top of any commit's ../: the module path stays under "actyp/", which is
// what lets it import actyp/internal/...
module actyp/bench

go 1.24

require actyp v0.0.0

replace actyp => ../
