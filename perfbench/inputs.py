"""Seeded inputs for the benchmark: a pseudo-word lexicon and Zipf text.

The lexicon holds syllable-shaped letter strings, so Liang hyphenation with
the bundled English patterns splits most of them into several parts.  Text
comes from an i.i.d. Zipf unigram source over the lexicon, written as lines
of ``LINE_WORDS`` words; the corpus reader appends ``<eos>`` to each line.
The source's entropy rate therefore has a closed form:
``LINE_WORDS / (LINE_WORDS + 1) * H(zipf)`` nats per token, because the
``<eos>`` after every ``LINE_WORDS`` words carries no information.

Everything here is numpy only and depends on nothing but the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LEXICON_SIZE = 9998          # plus <unk> and <eos>: V = 10000
ZIPF_EXPONENT = 1.0
LINE_WORDS = 20

# Six hundred letter strings that Liang hyphenation with the bundled English
# patterns tends to keep whole: the most frequent 2-5 letter parts of 40k
# random consonant-vowel-consonant compounds, hyphenated once and frozen here
# so that the inputs never depend on the segmenter under test.
SYLLABLES = """
    ab al alt an and ang ant back baim bain baip bal be bea bead bern bi
    bim bio biok biom biox bod bom born boug br brast bre brea bream
    brel brem bren brent bri brid brik bro bront brorn brost bru bry
    brym bryn buck by byn byrn byt cack caick caid cail caim cain cal
    can ce ces chi chio chiok chiom chiox chom choul chy chyn ci cik cio
    ciom ciomp ciong cip cist ck com con cou coult coust cust cy cyg cyk
    cyl cym cyn cys dack daid daist dan dat de deck den dend di did dio
    diob diock diod diok diop dock douck dous dr dra drack drarn dre
    drea dread dreak dream drean dreas dreax drem dremp dren drest dri
    drid drim drio drirn drit drom dron drond droud droun droup drour
    drout dru drub drult drun drund drust dry dryn duck dun dund dy dyn
    dynt east ern est fab faib faik faimp faist fam fat fe fen fer fi
    fib fid filt fio fiock fiok fion fios fip fo fob fock fod fok folt
    fom fon forn fos fouk foul four fourn fud fuk fy fyn fyp fyrn fyt
    gag gaick gail gaim gairn gan gar ge gend gi gin gio giob giock
    giorn girn go gob gock gom gorn gouck gr gra grack graid graik grail
    grain grait grak gram grand grant gre grea gread gream gren gri grim
    grirn grix gro gron gront gror grost grou groul grous grout grox gru
    gruck grul grund grurn gry gryck gryn gryrn gun gy hand he head hear
    hearn hi hous houst hy hyn ib ick ilt im imp in ing int iob iom ion
    iont ior iorn iost is ist ke ki kick ko ky kyn laist land li long
    louck loun ly lym lyn maid mail maim maimp main mast me meck mer mi
    mib mid miock miom mirn mit mock molt mon moun mourn muck my mym myn
    naim naind nal nam nan narn ne neam nean neat neck nen nim niong nit
    nos nouck noud noul nound nud nun ny nyk nyn ob ock od og ol olt om
    omp on ong ont op or orn ot out ox paib parn pe peam pearn peast
    pelt pi pio pla plab plail plaim plain plaip plalt plam plarn plas
    plat ple plea pleab pleak pleat plem pleng pli plib plick plid plio
    pliom plirn plo plond plot ploub ploun plous plu plult plun plup
    plust ply plym plyn pom por porn poung pount pug pup py pyk pyn re
    ri rn ryn sack saick saim sain saind sairn saist se sen sh sha shad
    shaib shas she shead shi ship shon shour shun shy shyn si sick sio
    siom siong sist sock sorn sou sount sout st sta stai staid staip ste
    stea stead stem sten sti stirn sto stor stut sty styn sub sug sult
    sun syn tack tad taim tairn tait tal tam tan tang tant tarn te tea
    tel tend th the thi thy thyn ti tim tio tiom tion tior tiost tk tom
    ton tont tou toun tour tourn tr tra track trad trag traim train
    trais trap tre treck tret tri tro truck try trym tryn tuck tum tump
    turn tus ty tyn vaid vaig vaik vain vaind vait van varn ve vi vin vy
    vyn waick wail waim waist we weam wem wer wio wiom wolt wom won wor
    wot woud wouk woul woump woun wound wour wun wyn za ze zi zod zon
    zop zoul zoult zoump zourn zoust zy
""".split()
SYLLABLE_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8)
SYLLABLE_WEIGHTS = (0.03, 0.16, 0.28, 0.22, 0.15, 0.09, 0.04, 0.03)


@dataclass
class Source:
    """A Zipf unigram source over a lexicon, ranked by a seeded permutation."""

    lexicon: list[str]
    probs: np.ndarray            # probs[i] is the probability of lexicon[i]

    @property
    def entropy(self) -> float:
        """H(zipf) in nats per word."""
        p = self.probs
        return float(-(p * np.log(p)).sum())

    @property
    def entropy_rate(self) -> float:
        """Nats per corpus token, counting the deterministic <eos> tokens."""
        return self.entropy * LINE_WORDS / (LINE_WORDS + 1)

    @property
    def token_std(self) -> float:
        """Standard deviation of -ln p(token) per corpus token.

        Used to turn a held-out length into a sampling slack for the
        entropy-rate bound.
        """
        p = self.probs
        surprisal = -np.log(p)
        mean = float((p * surprisal).sum())
        second = float((p * surprisal ** 2).sum())
        w = LINE_WORDS / (LINE_WORDS + 1)
        # a token is a word with probability w and a zero-surprisal <eos> else
        return math.sqrt(max(w * second - (w * mean) ** 2, 0.0))

    def text(self, rng: np.random.Generator, min_tokens: int) -> str:
        """Whole lines of i.i.d. words holding at least ``min_tokens`` tokens."""
        lines = -(-min_tokens // (LINE_WORDS + 1))
        cdf = np.cumsum(self.probs)
        cdf[-1] = 1.0
        draws = np.searchsorted(cdf, rng.random(lines * LINE_WORDS), side="right")
        words = [self.lexicon[i] for i in draws]
        return "\n".join(" ".join(words[k:k + LINE_WORDS])
                         for k in range(0, len(words), LINE_WORDS)) + "\n"

    def dictionary_text(self) -> str:
        """Every lexicon word once, in lines, so the vocabulary covers them all."""
        return "\n".join(" ".join(self.lexicon[k:k + LINE_WORDS])
                         for k in range(0, len(self.lexicon), LINE_WORDS)) + "\n"


def make_lexicon(rng: np.random.Generator, size: int = LEXICON_SIZE) -> list[str]:
    """``size`` distinct lowercase pseudo-words, each 1-8 syllables long."""
    weights = np.asarray(SYLLABLE_WEIGHTS) / sum(SYLLABLE_WEIGHTS)
    seen: set[str] = set()
    lexicon: list[str] = []
    while len(lexicon) < size:
        batch = size - len(lexicon) + 64
        counts = rng.choice(SYLLABLE_COUNTS, size=batch, p=weights)
        picks = rng.integers(len(SYLLABLES), size=int(counts.sum()))
        ends = np.cumsum(counts)
        for lo, hi in zip(ends - counts, ends):
            word = "".join(SYLLABLES[i] for i in picks[lo:hi])
            if word not in seen and len(lexicon) < size:
                seen.add(word)
                lexicon.append(word)
    return lexicon


def make_source(rng: np.random.Generator, size: int = LEXICON_SIZE,
                exponent: float = ZIPF_EXPONENT) -> Source:
    lexicon = make_lexicon(rng, size)
    ranks = rng.permutation(size)
    weights = 1.0 / (ranks + 1.0) ** exponent
    return Source(lexicon=lexicon, probs=weights / weights.sum())
