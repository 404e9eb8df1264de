package apps

import "sinan/internal/cluster"

// Hotel Reservation tier names (Fig. 1).
const (
	HFrontend     = "frontend"
	HSearch       = "search"
	HGeo          = "geo"
	HRate         = "rate"
	HProfile      = "profile"
	HRecommend    = "recommend"
	HReserve      = "reserve"
	HUser         = "user"
	HMemcProfile  = "profile-memc"
	HMemcRate     = "rate-memc"
	HMemcReserve  = "reserve-memc"
	HMongoProfile = "profile-mongo"
	HMongoGeo     = "geo-mongo"
	HMongoRate    = "rate-mongo"
	HMongoRecomm  = "recommend-mongo"
	HMongoUser    = "user-mongo"
	HMongoReserve = "reserve-mongo"
)

// NewHotelReservation builds the Hotel Reservation application: an online
// hotel booking site supporting search (geolocation + rates), reservations,
// recommendations, and user login, over memcached and MongoDB backends.
// QoS is 200 ms on the end-to-end 99th-percentile latency (Sec. 5.1).
func NewHotelReservation(opts ...Option) *App {
	c := buildOptions(opts)

	// Coefficients of variation are high: interactive RPC handlers mix fast
	// cache hits with slow misses and GC pauses, which is what makes tail
	// latency blow up well below full CPU utilization (the paper's argument
	// for why utilization-driven autoscaling misses the QoS cliff).
	logic := func(name string, maxCPU float64) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: maxCPU, InitCPU: maxCPU,
			ConnsPerReplica: 512, BaseRSS: 80, RSSPerConn: 0.05, RSSPerQueued: 0.02,
			WorkCV: 1.0,
		}
	}
	memc := func(name string) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: 4, InitCPU: 4,
			ConnsPerReplica: 1024, BaseRSS: 200, RSSPerConn: 0.02,
			CacheBase: 64, CacheMax: 512, CacheTau: 20000, WorkCV: 0.8,
		}
	}
	mongo := func(name string) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: 6, InitCPU: 6,
			ConnsPerReplica: 256, BaseRSS: 300, RSSPerConn: 0.1, RSSPerQueued: 0.05,
			CacheBase: 128, CacheMax: 1024, CacheTau: 50000, WorkCV: 1.4,
		}
	}

	tiers := []cluster.TierConfig{
		// Frontend HTTP server: high fan-in, large connection pool.
		{
			Name: HFrontend, Replicas: 1, MinCPU: 0.2, MaxCPU: 16, InitCPU: 16,
			ConnsPerReplica: 4096, BaseRSS: 100, RSSPerConn: 0.03, RSSPerQueued: 0.02,
			WorkCV: 0.8,
		},
		logic(HSearch, 12),
		logic(HGeo, 8),
		logic(HRate, 10),
		logic(HProfile, 10),
		logic(HRecommend, 8),
		logic(HReserve, 4),
		logic(HUser, 4),
		memc(HMemcProfile),
		memc(HMemcRate),
		memc(HMemcReserve),
		mongo(HMongoProfile),
		mongo(HMongoGeo),
		mongo(HMongoRate),
		mongo(HMongoRecomm),
		mongo(HMongoUser),
		mongo(HMongoReserve),
	}

	// SearchHotels: frontend → search → {geo→mongo, rate→memc(→mongo miss)}
	// in parallel, then frontend → profile → {memc, mongo} in parallel.
	search := &cluster.Stage{
		Tier: HFrontend, Work: 1.2 * ms, Packets: 2,
		Children: []*cluster.Stage{
			{
				Tier: HSearch, Work: 1.8 * ms,
				Parallel: true,
				Children: []*cluster.Stage{
					{Tier: HGeo, Work: 1.2 * ms, Children: []*cluster.Stage{
						{Tier: HMongoGeo, Work: 1.0 * ms},
					}},
					{Tier: HRate, Work: 1.6 * ms, Children: []*cluster.Stage{
						{Tier: HMemcRate, Work: 0.25 * ms},
						{Tier: HMongoRate, Work: 0.4 * ms},
					}},
				},
			},
			{
				Tier: HProfile, Work: 1.4 * ms, Parallel: true,
				Children: []*cluster.Stage{
					{Tier: HMemcProfile, Work: 0.3 * ms},
					{Tier: HMongoProfile, Work: 0.5 * ms},
				},
			},
		},
	}

	// Recommend: frontend → recommend → mongo, then profile lookup.
	recommend := &cluster.Stage{
		Tier: HFrontend, Work: 1.0 * ms, Packets: 1,
		Children: []*cluster.Stage{
			{Tier: HRecommend, Work: 1.6 * ms, Children: []*cluster.Stage{
				{Tier: HMongoRecomm, Work: 1.1 * ms},
			}},
			{Tier: HProfile, Work: 1.2 * ms, Children: []*cluster.Stage{
				{Tier: HMemcProfile, Work: 0.3 * ms},
			}},
		},
	}

	// ReserveRoom: frontend → user auth → reserve → {memc, mongo write}.
	reserve := &cluster.Stage{
		Tier: HFrontend, Work: 1.0 * ms, Packets: 2,
		Children: []*cluster.Stage{
			{Tier: HUser, Work: 1.0 * ms, Children: []*cluster.Stage{
				{Tier: HMongoUser, Work: 0.8 * ms},
			}},
			{Tier: HReserve, Work: 2.0 * ms, Parallel: true, Children: []*cluster.Stage{
				{Tier: HMemcReserve, Work: 0.3 * ms},
				{Tier: HMongoReserve, Work: 1.6 * ms, WriteBytes: 512},
			}},
		},
	}

	// UserLogin: frontend → user → mongo.
	login := &cluster.Stage{
		Tier: HFrontend, Work: 0.8 * ms, Packets: 1,
		Children: []*cluster.Stage{
			{Tier: HUser, Work: 1.2 * ms, Children: []*cluster.Stage{
				{Tier: HMongoUser, Work: 0.9 * ms},
			}},
		},
	}

	app := &App{
		Name:   "hotel-reservation",
		QoSMS:  200,
		Tiers:  tiers,
		loadLo: 500, loadHi: 3700,
		Requests: []RequestType{
			{Name: "SearchHotels", Weight: 0.60, Tree: search},
			{Name: "Recommend", Weight: 0.39, Tree: recommend},
			{Name: "ReserveRoom", Weight: 0.005, Tree: reserve},
			{Name: "UserLogin", Weight: 0.005, Tree: login},
		},
	}
	stateful := map[string]bool{
		HMongoProfile: true, HMongoGeo: true, HMongoRate: true,
		HMongoRecomm: true, HMongoUser: true, HMongoReserve: true,
	}
	return finish(app, c, stateful)
}
