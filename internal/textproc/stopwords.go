package textproc

// stopWords is a 250-entry common-English stop list, matching the size used
// in the paper's experimental setup ("we remove 250 common English stop
// words"). The list is the classical van Rijsbergen/SMART-style list
// truncated to 250 entries.
var stopWords = [...]string{
	"a", "about", "above", "across", "after", "again",
	"against", "all", "almost", "alone", "along", "already", "also",
	"although", "always", "am", "among", "amongst", "an", "and", "another",
	"any", "anyhow", "anyone", "anything", "anyway", "anywhere", "are",
	"around", "as", "at", "be", "became", "because", "become", "becomes",
	"becoming", "been", "before", "behind", "being", "below",
	"beside", "besides", "between", "beyond", "both", "but", "by", "can",
	"cannot", "could", "did", "do", "does", "doing", "done", "down", "during",
	"each", "either", "else", "elsewhere", "enough", "etc", "even", "ever",
	"every", "everyone", "everything", "everywhere", "except", "few", "for",
	"former", "formerly", "from", "further", "had", "has", "have", "having",
	"he", "hence", "her", "here",
	"hers", "herself", "him", "himself", "his", "how", "however", "i", "ie",
	"if", "in", "indeed", "instead", "into", "is", "it", "its", "itself",
	"just", "last", "latter", "least", "less", "like", "made",
	"many", "may", "me", "meanwhile", "might", "mine", "more", "moreover",
	"most", "mostly", "much", "must", "my", "myself", "namely", "neither",
	"never", "nevertheless", "next", "no", "nobody", "none", "nor", "not",
	"nothing", "now", "nowhere", "of", "off", "often", "on", "once", "one",
	"only", "onto", "or", "other", "others", "otherwise", "our", "ours",
	"ourselves", "out", "over", "own", "per", "perhaps", "please", "put",
	"rather", "re", "same", "say", "see", "seem", "seemed", "seeming",
	"seems", "several", "she", "should", "since", "so", "some", "somehow",
	"someone", "something", "sometime", "sometimes", "somewhere", "still",
	"such", "than", "that", "the", "their", "theirs", "them", "themselves",
	"then", "thence", "there", "therefore",
	"these", "they", "this", "those", "though",
	"through", "throughout", "thus", "to", "together", "too",
	"toward", "towards", "under", "unless", "until", "up", "upon", "us",
	"use", "used", "using", "various", "very", "via", "was", "we", "well",
	"were", "what", "whatever", "when", "whence", "whenever", "where",
	"wherever",
	"whether", "which", "while", "who", "whoever", "whole",
	"whom", "whose", "why", "will", "with", "within", "without", "would",
	"yet", "you", "your", "yours", "yourself", "yourselves",
}

// StopWordCount is the size of the static stop list.
const StopWordCount = len(stopWords)

func stopSet() map[string]struct{} {
	m := make(map[string]struct{}, len(stopWords))
	for _, w := range stopWords {
		m[w] = struct{}{}
	}
	return m
}
