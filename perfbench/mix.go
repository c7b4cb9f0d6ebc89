package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"mime/multipart"
	"sync"

	"hyperear/internal/chirp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sessionio"
	"hyperear/internal/sim"
)

// mixSize is the number of distinct sessions one seed renders. The mix is
// stratified rather than drawn independently: every seed gets the same
// multiset of slide counts (3–8 plus a second 4 and 6), each noise
// regime twice, each phone four times and two two-stature sessions, so
// the total audio — and with it the CPU a pass over the mix costs — is
// nearly the same for every seed, while the seed still decides which
// session gets which property and every continuous draw (distance
// inside its stratum, placement, clock skew, heights, noise and IMU
// realizations). Eight keeps rendering (the mall corridor's
// second-order reflections make it the slowest part) near 9 s on two
// cores.
const mixSize = 8

// chunkSeconds is the audio carried by one streaming upload.
const chunkSeconds = 0.1

// wavHeader is the size of WriteWAV's canonical RIFF/fmt/data header.
const wavHeader = 44

// session is one rendered recording with everything the load generator
// sends and everything the checks compare against.
type session struct {
	label   string
	threeD  bool
	phone   mic.Phone
	audioS  float64 // recording length in seconds
	frames  int     // stereo frames in the recording
	metaRaw []byte  // meta.json (also the streaming create body)
	imuCSV  []byte  // imu.csv (also the streaming IMU body)
	// body/contentType are the multipart /v1/locate upload.
	body        []byte
	contentType string
	// pcm is the WAV data chunk: interleaved stereo int16 LE, exactly
	// the streaming audio wire format, cut into chunkBytes pieces.
	pcm        []byte
	chunkBytes int
	// Ground truth for scoring, as internal/experiment scores a fix:
	// body-frame estimate rotated by the believed yaw, offset by the
	// phone's start position, compared with the speaker position.
	phoneXY   geom.Vec2
	yaw       float64
	speakerXY geom.Vec2
	// want is the reference answer (see check.go) and wantCode its HTTP
	// status; errCM is the reference fix's error. unrepresentable names
	// reference fields JSON cannot carry (see answerOf).
	want            answer
	wantCode        int
	errCM           float64
	unrepresentable []string
}

func (s *session) mode() string {
	if s.threeD {
		return "3d"
	}
	return "2d"
}

// spec is one stratified draw before rendering.
type spec struct {
	slides   int
	threeD   bool
	regime   room.Regime
	phone    mic.Phone
	distM    float64
	phoneZ   float64
	speakerZ float64
	stature  float64
	skewPPM  float64
	seed     int64
	placeU   [2]float64
	bin      int // distance stratum, 0..mixSize-1
}

// drawMix turns a workload seed into the stratified session specs.
func drawMix(seed int64) []spec {
	rng := rand.New(rand.NewSource(seed))
	slides := []int{3, 4, 5, 6, 7, 8, 4, 6}
	rng.Shuffle(len(slides), func(i, j int) { slides[i], slides[j] = slides[j], slides[i] })
	regimes := make([]room.Regime, mixSize)
	for i := range regimes {
		regimes[i] = room.Regime(1 + i%4)
	}
	rng.Shuffle(len(regimes), func(i, j int) { regimes[i], regimes[j] = regimes[j], regimes[i] })
	phones := make([]mic.Phone, mixSize)
	for i := range phones {
		if i%2 == 0 {
			phones[i] = mic.GalaxyS4()
		} else {
			phones[i] = mic.GalaxyNote3()
		}
	}
	rng.Shuffle(len(phones), func(i, j int) { phones[i], phones[j] = phones[j], phones[i] })
	// Distance strata: mixSize equal bins over 1–8 m, one per session.
	bins := rng.Perm(mixSize)
	// Two-stature sessions need an even slide count (half per stature);
	// two of the five even-count sessions become 3D.
	var even []int
	for i, n := range slides {
		if n%2 == 0 {
			even = append(even, i)
		}
	}
	rng.Shuffle(len(even), func(i, j int) { even[i], even[j] = even[j], even[i] })
	threeD := map[int]bool{even[0]: true, even[1]: true}

	specs := make([]spec, mixSize)
	for i := range specs {
		specs[i] = drawFree(rng, spec{
			slides: slides[i],
			threeD: threeD[i],
			regime: regimes[i],
			phone:  phones[i],
			bin:    bins[i],
		})
	}
	return specs
}

// drawFree fills in a spec's continuous draws — distance inside its
// stratum, clock skew, simulation seed, placement and, for two-stature
// sessions, the heights — keeping its stratified properties.
func drawFree(rng *rand.Rand, s spec) spec {
	s.distM = 1 + (float64(s.bin)+rng.Float64())*7/mixSize
	s.skewPPM = -30 + 60*rng.Float64()
	s.seed = rng.Int63()
	s.placeU = [2]float64{rng.Float64(), rng.Float64()}
	if s.threeD {
		s.phoneZ = 1.0 + 0.4*rng.Float64()
		s.speakerZ = 1.2
		s.stature = 0.35 + 0.15*rng.Float64()
	} else {
		s.phoneZ = 1.2
		s.speakerZ = 1.2
	}
	return s
}

// environment returns the room a noise regime is recorded in (the
// paper's Figure 19 pairing).
func environment(r room.Regime) room.Environment {
	if r == room.RegimeMallOffPeak || r == room.RegimeMallBusy {
		return room.MallCorridor()
	}
	return room.MeetingRoom()
}

// place puts the phone and the speaker distM apart horizontally inside
// the room, a metre from every wall, from two uniform draws.
func place(env room.Environment, sp spec) (phone, speaker geom.Vec3) {
	const margin = 1.0
	w, h := env.Size.X-2*margin, env.Size.Y-2*margin
	theta := 2 * math.Pi * sp.placeU[1]
	dx, dy := sp.distM*math.Cos(theta), sp.distM*math.Sin(theta)
	// Phone x/y are drawn inside the span that keeps the speaker in the
	// room too, so no placement is ever rejected.
	px := margin + math.Max(0, -dx) + sp.placeU[0]*(w-math.Abs(dx))
	py := margin + math.Max(0, -dy) + (h-math.Abs(dy))/2
	return geom.Vec3{X: px, Y: py, Z: sp.phoneZ}, geom.Vec3{X: px + dx, Y: py + dy, Z: sp.speakerZ}
}

// render simulates one session and encodes its uploads.
func render(idx int, sp spec) (*session, error) {
	env := environment(sp.regime)
	phonePos, spkPos := place(env, sp)
	proto := sim.Protocol{
		SlideDist:     0.55,
		SlideDur:      1.0,
		HoldDur:       0.45,
		Slides:        sp.slides,
		Mode:          sim.ModeHand,
		StatureChange: sp.stature,
	}
	sc := sim.Scenario{
		Env:            env,
		Phone:          sp.phone,
		Source:         chirp.Default(),
		SpeakerPos:     spkPos,
		SpeakerSkewPPM: sp.skewPPM,
		PhoneStart:     phonePos,
		Protocol:       proto,
		IMU:            imu.DefaultConfig(),
		Noise:          sp.regime.Source(),
		SNRdB:          sp.regime.SNRdB(),
		Seed:           sp.seed,
	}
	run, err := sim.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("render session %d: %w", idx, err)
	}
	var wav, csv bytes.Buffer
	if err := sessionio.WriteRecording(&wav, run.Recording); err != nil {
		return nil, err
	}
	if err := sessionio.WriteIMU(&csv, run.IMU); err != nil {
		return nil, err
	}
	meta, err := json.Marshal(sessionio.Meta{
		PhoneName:     sp.phone.Name,
		MicSeparation: sp.phone.MicSeparation,
		SampleRate:    run.Recording.Fs,
	})
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, p := range []struct {
		name string
		data []byte
	}{{sessionio.PartAudio, wav.Bytes()}, {sessionio.PartIMU, csv.Bytes()}, {sessionio.PartMeta, meta}} {
		w, err := mw.CreateFormFile(p.name, p.name)
		if err != nil {
			return nil, err
		}
		w.Write(p.data)
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	frames := len(run.Recording.Mic1)
	kind := "2d"
	if sp.threeD {
		kind = "3d"
	}
	return &session{
		label:       fmt.Sprintf("s%02d-%s-%dslides-%.1fm-%s-%s", idx, kind, sp.slides, sp.distM, sp.regime, sp.phone.Name),
		threeD:      sp.threeD,
		phone:       sp.phone,
		audioS:      float64(frames) / run.Recording.Fs,
		frames:      frames,
		metaRaw:     meta,
		imuCSV:      bytes.Clone(csv.Bytes()),
		body:        body.Bytes(),
		contentType: mw.FormDataContentType(),
		pcm:         bytes.Clone(wav.Bytes()[wavHeader:]),
		chunkBytes:  4 * int(math.Round(chunkSeconds*run.Recording.Fs)),
		phoneXY:     phonePos.XY(),
		yaw:         run.TrueYaw - geom.Radians(proto.YawErrDeg),
		speakerXY:   spkPos.XY(),
	}, nil
}

// renderMix renders specs on up to workers goroutines.
func renderMix(specs []spec, workers int) ([]*session, error) {
	out := make([]*session, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = render(i, specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// chunks returns the session's streaming uploads in order.
func (s *session) chunks() [][]byte {
	var out [][]byte
	for off := 0; off < len(s.pcm); off += s.chunkBytes {
		end := min(off+s.chunkBytes, len(s.pcm))
		out = append(out, s.pcm[off:end])
	}
	return out
}
