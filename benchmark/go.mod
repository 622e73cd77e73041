module fsr/benchmark

go 1.24

require fsr v0.0.0

replace fsr => ../
