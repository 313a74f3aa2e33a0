module adcache/bench

go 1.22

require adcache v0.0.0

replace adcache => ../
