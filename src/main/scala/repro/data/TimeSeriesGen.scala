package repro.data

import scala.util.Random

/** Synthetic time-series generators.
  *
  * `synthetic` reproduces the paper's Figure-4 generator (Table 4 input):
  * piecewise-linear trend with random changepoints + two seasonal components
  * + Gaussian noise, with the true components returned for MASE-vs-truth.
  *
  * The `bikeSharing`/`dailyFemaleBirths`/`elecequip`/`minTemperature`/
  * `internetTraffic` generators are offline stand-ins for the paper's five
  * real datasets (DESIGN.md substitution 3): same length, same seasonality
  * periods, qualitatively matching trend/seasonal/noise structure.
  * Everything is deterministic in the seed.
  */
object TimeSeriesGen {

  /** A generated series together with its ground-truth components. */
  final case class Generated(
      x: Array[Double],
      trueTrend: Array[Double],
      trueSeasonals: Seq[Array[Double]],
      periods: Seq[Int]) {
    def n: Int = x.length
  }

  /** A smooth random periodic pattern of period m: 1–3 random harmonics,
    * re-centered to mean zero and scaled to a peak magnitude in
    * [minMag, maxMag].
    */
  private def randomSeasonalPattern(m: Int, minMag: Double, maxMag: Double,
                                    rng: Random): Array[Double] = {
    val nHarm = 1 + rng.nextInt(3)
    val amps   = Array.fill(nHarm)(rng.nextDouble() * 2 - 1)
    val phases = Array.fill(nHarm)(rng.nextDouble() * 2 * math.Pi)
    val raw = Array.tabulate(m) { t =>
      var s = 0.0
      for (h <- 0 until nHarm)
        s += amps(h) * math.sin(2 * math.Pi * (h + 1) * t / m + phases(h))
      s
    }
    val mean = raw.sum / m
    val centered = raw.map(_ - mean)
    val peak = centered.map(math.abs).max max 1e-9
    val mag = minMag + rng.nextDouble() * (maxMag - minMag)
    centered.map(_ * mag / peak)
  }

  /** Piecewise-linear trend with `nChangepoints` random slope changes. */
  private def changepointTrend(n: Int, nChangepoints: Int, slopeMag: Double,
                               rng: Random): Array[Double] = {
    val cps = Seq.fill(nChangepoints)(1 + rng.nextInt(n - 2)).distinct.sorted
    val out = new Array[Double](n)
    var slope = (rng.nextDouble() * 2 - 1) * slopeMag
    var level = rng.nextDouble() * 10
    var cpIdx = 0
    for (t <- 0 until n) {
      if (cpIdx < cps.length && t == cps(cpIdx)) {
        slope = (rng.nextDouble() * 2 - 1) * slopeMag
        cpIdx += 1
      }
      out(t) = level
      level += slope
    }
    out
  }

  /** Figure-4 synthetic series: n=750, periods 25 & 50, 5 trend changepoints,
    * seasonal magnitudes ~[-1.5, 1.5] and [-0.5, 0.5], Gaussian noise.
    */
  def synthetic(n: Int = 750, periods: Seq[Int] = Seq(25, 50),
                nChangepoints: Int = 5, noiseStd: Double = 0.3,
                seed: Long = 42L): Generated = {
    val rng = new Random(seed)
    val trend = changepointTrend(n, nChangepoints, slopeMag = 0.05, rng)
    val mags = Seq((1.0, 1.5), (0.3, 0.5)) // peak magnitude range per period
    val seasonals = periods.zip(mags.take(periods.length)).map { case (m, (lo, hi)) =>
      val pat = randomSeasonalPattern(m, lo, hi, rng)
      Array.tabulate(n)(t => pat(t % m))
    }
    val x = Array.tabulate(n) { t =>
      trend(t) + seasonals.map(_(t)).sum + rng.nextGaussian() * noiseStd
    }
    Generated(x, trend, seasonals, periods)
  }

  // ---- real-dataset stand-ins (same n, m as the paper) -------------------

  /** A stand-in series: `trend(t)` plus one random pattern per
    * (period, minMag, maxMag), drawn in order, plus Gaussian noise of std
    * `noise`, summed left to right.
    */
  private def standIn(seed: Long, n: Int, trend: Int => Double,
                      seasonals: Seq[(Int, Double, Double)], noise: Double): Generated = {
    val rng = new Random(seed)
    val tr = Array.tabulate(n)(trend)
    val seas = seasonals.map { case (m, lo, hi) =>
      val pat = randomSeasonalPattern(m, lo, hi, rng)
      Array.tabulate(n)(t => pat(t % m))
    }
    val x = Array.tabulate(n) { t =>
      var v = tr(t)
      for (s <- seas) v += s(t)
      v + rng.nextGaussian() * noise
    }
    Generated(x, tr, seas, seasonals.map(_._1))
  }

  /** Daily bike-rental totals, 2 years: yearly-cycle trend with growth,
    * weekly seasonality, moderately heavy noise. n=730, m=7.
    */
  def bikeSharing(seed: Long = 1L): Generated =
    standIn(seed, 730, t => 4500 + 2.5 * t + 1800 * math.sin(2 * math.Pi * (t - 105) / 365.0),
      Seq((7, 250, 400)), noise = 600)

  /** Daily female births, 1 year: near-flat trend with a slight rise, weak
    * weekly seasonality, strong relative noise. n=364, m=7.
    */
  def dailyFemaleBirths(seed: Long = 2L): Generated = {
    val n = 364
    standIn(seed, n, t => 40.0 + 4.0 * t / n + 1.5 * math.sin(2 * math.Pi * t / 364.0),
      Seq((7, 1.0, 2.0)), noise = 5.5)
  }

  /** Monthly electrical-equipment manufacturing: business-cycle trend with a
    * recession dip, strong monthly seasonality, low noise. n=190, m=12.
    */
  def elecequip(seed: Long = 3L): Generated =
    standIn(seed, 190, { t =>
      val cycle = 8 * math.sin(2 * math.Pi * t / 110.0)
      val dip = if (t > 150) -10 * (1 - math.exp(-(t - 150) / 12.0)) else 0.0
      95 + 0.05 * t + cycle + dip
    }, Seq((12, 8, 12)), noise = 2.0)

  /** Daily minimum temperature: yearly sinusoid trend, weak weekly and
    * monthly patterns, moderate noise. n=500, m={7, 28}.
    */
  def minTemperature(seed: Long = 4L): Generated =
    standIn(seed, 500, t => 11.0 + 4.5 * math.sin(2 * math.Pi * (t + 30) / 365.0),
      Seq((7, 0.3, 0.6), (28, 0.5, 1.0)), noise = 2.2)

  /** Hourly aggregated internet traffic: growing trend, strong daily and
    * weekly seasonality, small noise. n=1231, m={24, 168}.
    */
  def internetTraffic(seed: Long = 5L): Generated =
    standIn(seed, 1231, t => 3000 + 0.6 * t + 150 * math.sin(2 * math.Pi * t / 600.0),
      Seq((24, 700, 1000), (168, 250, 400)), noise = 120)

  /** The five Table-3 datasets keyed by the paper's names. */
  def realDatasets(seed: Long = 0L): Seq[(String, Generated)] = Seq(
    "Bike sharing"        -> bikeSharing(seed + 1),
    "Daily female births" -> dailyFemaleBirths(seed + 2),
    "Elecequip"           -> elecequip(seed + 3),
    "Min temperature"     -> minTemperature(seed + 4),
    "Internet traffic"    -> internetTraffic(seed + 5),
  )

  /** A metrics-like streaming series for throughput runs: sinusoidal
    * seasonality + drift + noise, cheap to generate point-wise.
    */
  def metricPoint(seriesId: Long, t: Long, period: Int): Double = {
    val phase = 2 * math.Pi * (t % period).toDouble / period
    val base = 50.0 + (seriesId % 17)
    // xorshift-style hash for deterministic per-(series, t) noise
    var h = seriesId * 0x9E3779B97F4A7C15L + t * 0xBF58476D1CE4E5B9L
    h ^= h >>> 31; h *= 0x94D049BB133111EBL; h ^= h >>> 27
    val noise = ((h & 0xFFFFFF).toDouble / 0xFFFFFF - 0.5) * 4.0
    base + 10.0 * math.sin(phase) + 3.0 * math.sin(2 * phase) + 0.001 * t + noise
  }
}
