package main

// fleetExpected is the fleet-100k Report().String() for seeds 0-20,
// taken from the batch path (dcsim.Run over the same trace), so the
// benchmark's own replay is checked against it.
var fleetExpected = map[uint64]string{
	0:  "peak density 0.156, rejected 0, peak OC 5745, OC server-hours 59017.0, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	1:  "peak density 0.157, rejected 0, peak OC 5631, OC server-hours 58370.4, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	2:  "peak density 0.156, rejected 0, peak OC 5655, OC server-hours 58880.7, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	3:  "peak density 0.157, rejected 0, peak OC 5672, OC server-hours 58549.6, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	4:  "peak density 0.157, rejected 0, peak OC 5775, OC server-hours 58994.5, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	5:  "peak density 0.157, rejected 0, peak OC 5626, OC server-hours 58097.1, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	6:  "peak density 0.157, rejected 0, peak OC 5733, OC server-hours 58948.4, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	7:  "peak density 0.156, rejected 0, peak OC 5696, OC server-hours 58618.7, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	8:  "peak density 0.157, rejected 0, peak OC 5722, OC server-hours 59049.0, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	9:  "peak density 0.157, rejected 0, peak OC 5722, OC server-hours 58370.4, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	10: "peak density 0.157, rejected 0, peak OC 5757, OC server-hours 59237.5, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	11: "peak density 0.157, rejected 0, peak OC 5616, OC server-hours 58519.2, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	12: "peak density 0.156, rejected 0, peak OC 5561, OC server-hours 58389.4, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	13: "peak density 0.157, rejected 0, peak OC 5656, OC server-hours 58862.1, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	14: "peak density 0.157, rejected 0, peak OC 5728, OC server-hours 58802.4, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	15: "peak density 0.157, rejected 0, peak OC 5652, OC server-hours 58807.7, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	16: "peak density 0.156, rejected 0, peak OC 5696, OC server-hours 59073.2, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	17: "peak density 0.157, rejected 0, peak OC 5626, OC server-hours 58603.5, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	18: "peak density 0.157, rejected 0, peak OC 5655, OC server-hours 58909.7, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
	19: "peak density 0.157, rejected 0, peak OC 5608, OC server-hours 58547.4, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.05× schedule",
	20: "peak density 0.157, rejected 0, peak OC 5695, OC server-hours 58894.1, max bath 50.0°C, cap events 0 (0 cancelled), wear rate 0.06× schedule",
}
