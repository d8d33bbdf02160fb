module dualsim/benchmark

go 1.24

require dualsim v0.0.0

replace dualsim => ../
