module kwsc/bench

go 1.22

require kwsc v0.0.0

replace kwsc => ../
