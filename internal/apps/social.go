package apps

import "sinan/internal/cluster"

// Social Network tier names (Fig. 2; names follow the per-tier legend of
// Fig. 12 in the paper).
const (
	SNginx          = "nginx"
	SComposePost    = "composePost"
	SCompPostRedis  = "compPost-Redis"
	SText           = "text"
	STextFilter     = "textFilter"
	SMedia          = "media"
	SMediaFilter    = "mediaFilter"
	SUniqueID       = "uniqueID"
	SURLShorten     = "urlShorten"
	SUserMention    = "userMention"
	SUser           = "user"
	SUserMemc       = "user-mem$"
	SUserMongo      = "user-mongodb"
	SPostStore      = "postStore"
	SPostStoreMemc  = "postStore-mem$"
	SPostStoreMongo = "postStore-mongodb"
	SHomeTimeline   = "homeTimeline"
	SHomeTlRedis    = "homeTl-Redis"
	SUserTimeline   = "userTimeline"
	SUserTlRedis    = "userTl-Redis"
	SUserTlMongo    = "userTl-mongodb"
	SWriteHomeTl    = "writeHomeTimeline"
	SWriteHomeTlRMQ = "writeHomeTl-Rabbitmq"
	SWriteUserTl    = "writeUserTimeline"
	SWriteUserTlRMQ = "writeUserTl-Rabbitmq"
	SGraph          = "graph"
	SGraphRedis     = "graph-Redis"
	SGraphMongo     = "graph-mongodb"
)

// Social Network request-type names.
const (
	ComposePost      = "ComposePost"
	ReadHomeTimeline = "ReadHomeTimeline"
	ReadUserTimeline = "ReadUserTimeline"
)

// Mixes W0–W3 of Sec. 5.5: ratios of
// ComposePost : ReadHomeTimeline : ReadUserTimeline.
var (
	MixW0 = map[string]float64{ComposePost: 5, ReadHomeTimeline: 80, ReadUserTimeline: 15}
	MixW1 = map[string]float64{ComposePost: 10, ReadHomeTimeline: 80, ReadUserTimeline: 10}
	MixW2 = map[string]float64{ComposePost: 1, ReadHomeTimeline: 90, ReadUserTimeline: 9}
	MixW3 = map[string]float64{ComposePost: 5, ReadHomeTimeline: 70, ReadUserTimeline: 25}
)

// Mixes lists the named workload mixes in order.
var Mixes = []struct {
	Name string
	Mix  map[string]float64
}{
	{"W0", MixW0}, {"W1", MixW1}, {"W2", MixW2}, {"W3", MixW3},
}

// NewSocialNetwork builds the Social Network application: a broadcast-style
// social network with uni-directional follow relationships. Users compose
// posts (passing CNN image filters and SVM text filters), which fan out to
// follower timelines via RabbitMQ write paths; reads hit Redis/memcached
// caches backed by MongoDB. QoS is 500 ms on the end-to-end p99 (Sec. 5.1).
func NewSocialNetwork(opts ...Option) *App {
	c := buildOptions(opts)

	logic := func(name string, maxCPU float64) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: maxCPU, InitCPU: maxCPU,
			ConnsPerReplica: 256, BaseRSS: 90, RSSPerConn: 0.05, RSSPerQueued: 0.02,
			WorkCV: 0.5,
		}
	}
	redis := func(name string) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: 4, InitCPU: 4,
			ConnsPerReplica: 512, BaseRSS: 150, RSSPerConn: 0.02,
			RSSPerWrite: 0.0005, RSSWriteCap: 400,
			CacheBase: 32, CacheMax: 256, CacheTau: 30000, WorkCV: 0.4,
		}
	}
	memc := func(name string) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: 4, InitCPU: 4,
			ConnsPerReplica: 512, BaseRSS: 180, RSSPerConn: 0.02,
			CacheBase: 64, CacheMax: 512, CacheTau: 30000, WorkCV: 0.4,
		}
	}
	mongo := func(name string) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: 6, InitCPU: 6,
			ConnsPerReplica: 256, BaseRSS: 350, RSSPerConn: 0.1, RSSPerQueued: 0.05,
			CacheBase: 128, CacheMax: 1024, CacheTau: 60000, WorkCV: 0.7,
		}
	}
	// ML inference has near-deterministic per-request compute, unlike the
	// I/O-bound logic tiers.
	mlFilter := func(name string, maxCPU float64) cluster.TierConfig {
		cfg := logic(name, maxCPU)
		cfg.WorkCV = 0.2
		return cfg
	}
	rabbit := func(name string) cluster.TierConfig {
		return cluster.TierConfig{
			Name: name, Replicas: 1, MinCPU: 0.2, MaxCPU: 3, InitCPU: 3,
			ConnsPerReplica: 512, BaseRSS: 120, RSSPerQueued: 0.05, WorkCV: 0.4,
		}
	}

	graphRedis := redis(SGraphRedis)
	if c.logSync {
		// Redis AOF rewrite every minute: the service forks and copies all
		// written memory to disk, pausing request serving (Sec. 5.6.2).
		graphRedis.StallInterval = 60
		graphRedis.StallBase = 0.4
		graphRedis.StallPerMB = 0.004
	}

	tiers := []cluster.TierConfig{
		{
			Name: SNginx, Replicas: 1, MinCPU: 0.2, MaxCPU: 8, InitCPU: 8,
			ConnsPerReplica: 4096, BaseRSS: 100, RSSPerConn: 0.03, RSSPerQueued: 0.02,
			WorkCV: 0.4,
		},
		logic(SComposePost, 6),
		redis(SCompPostRedis),
		logic(SText, 4),
		mlFilter(STextFilter, 8), // SVM text classifier
		logic(SMedia, 4),
		mlFilter(SMediaFilter, 12), // CNN image classifier: dominant compose cost
		logic(SUniqueID, 2),
		logic(SURLShorten, 2),
		logic(SUserMention, 2),
		logic(SUser, 4),
		memc(SUserMemc),
		mongo(SUserMongo),
		logic(SPostStore, 8),
		memc(SPostStoreMemc),
		mongo(SPostStoreMongo),
		logic(SHomeTimeline, 8),
		redis(SHomeTlRedis),
		logic(SUserTimeline, 6),
		redis(SUserTlRedis),
		mongo(SUserTlMongo),
		logic(SWriteHomeTl, 4),
		rabbit(SWriteHomeTlRMQ),
		logic(SWriteUserTl, 4),
		rabbit(SWriteUserTlRMQ),
		logic(SGraph, 4),
		graphRedis,
		mongo(SGraphMongo),
	}

	// ComposePost: nginx → composePost fans out to content processing
	// (text/media filters, unique id, url shortening, user mentions), then
	// persists the post, then fans out timeline writes through RabbitMQ.
	compose := &cluster.Stage{
		Tier: SNginx, Work: 0.8 * ms, Packets: 4,
		Children: []*cluster.Stage{
			{
				Tier: SComposePost, Work: 2.5 * ms, Parallel: true, Packets: 2,
				Children: []*cluster.Stage{
					{Tier: SText, Work: 1.2 * ms, Parallel: true, Children: []*cluster.Stage{
						{Tier: STextFilter, Work: 30 * ms},
						{Tier: SURLShorten, Work: 0.8 * ms},
						{Tier: SUserMention, Work: 0.8 * ms, Children: []*cluster.Stage{
							{Tier: SUserMemc, Work: 0.3 * ms},
						}},
					}},
					{Tier: SMedia, Work: 1.5 * ms, Packets: 8, Children: []*cluster.Stage{
						{Tier: SMediaFilter, Work: 120 * ms},
					}},
					{Tier: SUniqueID, Work: 0.4 * ms},
					{Tier: SUser, Work: 0.8 * ms, Children: []*cluster.Stage{
						{Tier: SUserMemc, Work: 0.25 * ms},
					}},
					{Tier: SCompPostRedis, Work: 0.4 * ms, WriteBytes: 256},
				},
			},
			{
				Tier: SPostStore, Work: 1.8 * ms, Parallel: true, Packets: 2,
				Children: []*cluster.Stage{
					{Tier: SPostStoreMemc, Work: 0.3 * ms, WriteBytes: 256},
					{Tier: SPostStoreMongo, Work: 1.8 * ms, WriteBytes: 1024},
				},
			},
			{
				Tier: SWriteUserTl, Work: 1.2 * ms, Children: []*cluster.Stage{
					{Tier: SWriteUserTlRMQ, Work: 0.4 * ms, Parallel: true, Children: []*cluster.Stage{
						{Tier: SUserTlRedis, Work: 0.5 * ms, WriteBytes: 256},
						{Tier: SUserTlMongo, Work: 1.2 * ms, WriteBytes: 512},
					}},
				},
			},
			{
				Tier: SWriteHomeTl, Work: 1.2 * ms, Children: []*cluster.Stage{
					{Tier: SWriteHomeTlRMQ, Work: 0.4 * ms, Children: []*cluster.Stage{
						// Fetch followers from the social graph, then fan the
						// post out to their home timelines in Redis.
						{Tier: SGraph, Work: 1.0 * ms, Parallel: true, Children: []*cluster.Stage{
							{Tier: SGraphRedis, Work: 0.8 * ms, WriteBytes: 512},
							{Tier: SGraphMongo, Work: 0.6 * ms},
						}},
						{Tier: SHomeTlRedis, Work: 1.6 * ms, WriteBytes: 1024},
					}},
				},
			},
		},
	}

	// ReadHomeTimeline: nginx → homeTimeline → home-timeline Redis, then
	// post bodies from the post-store cache (mongo on miss).
	readHome := &cluster.Stage{
		Tier: SNginx, Work: 0.7 * ms, Packets: 2,
		Children: []*cluster.Stage{
			{Tier: SHomeTimeline, Work: 1.3 * ms, Children: []*cluster.Stage{
				{Tier: SHomeTlRedis, Work: 0.8 * ms},
				{Tier: SPostStore, Work: 1.2 * ms, Parallel: true, Children: []*cluster.Stage{
					{Tier: SPostStoreMemc, Work: 0.5 * ms},
					{Tier: SPostStoreMongo, Work: 0.3 * ms},
				}},
			}},
		},
	}

	// ReadUserTimeline: nginx → userTimeline → user-timeline Redis/Mongo,
	// then post bodies from the post store.
	readUser := &cluster.Stage{
		Tier: SNginx, Work: 0.7 * ms, Packets: 2,
		Children: []*cluster.Stage{
			{Tier: SUserTimeline, Work: 1.3 * ms, Children: []*cluster.Stage{
				{Tier: SUserTlRedis, Work: 0.7 * ms},
				{Tier: SUserTlMongo, Work: 0.6 * ms},
				{Tier: SPostStore, Work: 1.2 * ms, Children: []*cluster.Stage{
					{Tier: SPostStoreMemc, Work: 0.5 * ms},
				}},
			}},
		},
	}

	if c.encryption {
		// AES-encrypt post bodies before storage (Fig. 13 app modification):
		// extra CPU on the text pipeline and both post-store write paths.
		compose = addWork(compose, SText, 6*ms)
		compose = addWork(compose, SPostStore, 4*ms)
		readHome = addWork(readHome, SPostStore, 2*ms) // decrypt on read
		readUser = addWork(readUser, SPostStore, 2*ms)
	}

	app := &App{
		Name:   "social-network",
		QoSMS:  500,
		Tiers:  tiers,
		loadLo: 50, loadHi: 450,
		Requests: []RequestType{
			{Name: ComposePost, Weight: 5, Tree: compose},
			{Name: ReadHomeTimeline, Weight: 80, Tree: readHome},
			{Name: ReadUserTimeline, Weight: 15, Tree: readUser},
		},
	}
	stateful := map[string]bool{
		SUserMongo: true, SPostStoreMongo: true, SUserTlMongo: true, SGraphMongo: true,
	}
	return finish(app, c, stateful)
}
